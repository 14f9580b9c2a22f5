#ifndef URBANE_GEOMETRY_POLYGON_H_
#define URBANE_GEOMETRY_POLYGON_H_

#include <cstddef>
#include <vector>

#include "geometry/bounding_box.h"
#include "geometry/point.h"
#include "util/status.h"

namespace urbane::geometry {

/// A ring is an implicitly-closed sequence of vertices (the last vertex is
/// NOT a repeat of the first).
using Ring = std::vector<Vec2>;

/// Signed area of a ring: positive for counter-clockwise orientation.
double RingSignedArea(const Ring& ring);

/// True if the ring is counter-clockwise (by signed area).
bool RingIsCounterClockwise(const Ring& ring);

/// Even-odd (crossing-number) point-in-ring test. Points exactly on an edge
/// count as inside (boundary-inclusive), which keeps the exact executors'
/// semantics identical to the rasterized pixel-ownership semantics.
bool RingContains(const Ring& ring, const Vec2& p);

/// Winding-number point-in-ring test (boundary-inclusive). Agrees with
/// RingContains on simple rings; used by tests as an independent oracle.
bool RingContainsWinding(const Ring& ring, const Vec2& p);

/// True if `p` lies exactly on some edge of the ring.
bool RingBoundaryContains(const Ring& ring, const Vec2& p);

/// Simple polygon with optional holes. Invariants after Normalize():
/// outer ring counter-clockwise, holes clockwise, every ring has >= 3
/// vertices.
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(Ring outer) : outer_(std::move(outer)) {}
  Polygon(Ring outer, std::vector<Ring> holes)
      : outer_(std::move(outer)), holes_(std::move(holes)) {}

  const Ring& outer() const { return outer_; }
  Ring& mutable_outer() { return outer_; }
  const std::vector<Ring>& holes() const { return holes_; }
  void add_hole(Ring hole) { holes_.push_back(std::move(hole)); }

  /// Total vertex count over all rings.
  std::size_t VertexCount() const;

  /// Positive area: |outer| - sum |holes|.
  double Area() const;

  /// Perimeter of the outer ring plus hole boundaries.
  double Perimeter() const;

  /// Area-weighted centroid of the polygon (holes subtracted).
  Vec2 Centroid() const;

  BoundingBox Bounds() const;

  /// Boundary-inclusive containment: inside the outer ring and not strictly
  /// inside any hole. A point on a hole's boundary is considered inside the
  /// polygon.
  bool Contains(const Vec2& p) const;

  /// True if `p` lies on any ring boundary.
  bool BoundaryContains(const Vec2& p) const;

  /// Reorients rings to the canonical orientation (outer CCW, holes CW).
  void Normalize();

  /// Validation: every ring has >= 3 vertices and non-zero area; outer ring
  /// must not self-intersect (O(n^2) check, intended for ingest/test time,
  /// not query time).
  urbane::Status Validate() const;

  /// True if no two non-adjacent edges of any single ring intersect.
  bool IsSimple() const;

 private:
  Ring outer_;
  std::vector<Ring> holes_;
};

/// A set of disjoint polygons treated as one region (e.g. a neighborhood
/// made of islands).
class MultiPolygon {
 public:
  MultiPolygon() = default;
  explicit MultiPolygon(std::vector<Polygon> parts)
      : parts_(std::move(parts)) {}
  explicit MultiPolygon(Polygon single) { parts_.push_back(std::move(single)); }

  const std::vector<Polygon>& parts() const { return parts_; }
  std::vector<Polygon>& mutable_parts() { return parts_; }
  void add_part(Polygon part) { parts_.push_back(std::move(part)); }
  bool empty() const { return parts_.empty(); }

  std::size_t VertexCount() const;
  double Area() const;
  Vec2 Centroid() const;
  BoundingBox Bounds() const;
  bool Contains(const Vec2& p) const;
  void Normalize();

 private:
  std::vector<Polygon> parts_;
};

/// Regular polygon with `vertex_count` vertices on a circle of `radius`.
Polygon MakeRegularPolygon(const Vec2& center, double radius,
                           std::size_t vertex_count, double phase = 0.0);

}  // namespace urbane::geometry

#endif  // URBANE_GEOMETRY_POLYGON_H_
