#ifndef URBANE_GEOMETRY_TRIANGULATE_H_
#define URBANE_GEOMETRY_TRIANGULATE_H_

#include <vector>

#include "geometry/point.h"
#include "geometry/polygon.h"
#include "util/status.h"

namespace urbane::geometry {

/// One output triangle (counter-clockwise).
struct Triangle {
  Vec2 a;
  Vec2 b;
  Vec2 c;

  double Area() const { return 0.5 * std::fabs(Orient2d(a, b, c)); }
  bool Contains(const Vec2& p) const;
};

/// Ear-clipping triangulation of a simple polygon; holes are eliminated
/// first by bridging each hole to the outer ring (earcut-style), so the
/// result covers exactly polygon-minus-holes.
///
/// This feeds the triangle rasterizer, mirroring how the GPU implementation
/// of Raster Join tessellates polygons before rendering. The raster joins
/// draw regions with the scanline fill; the triangle path is the oracle its
/// tests compare against and the microbench's fill-cost baseline.
/// Returns InvalidArgument for degenerate inputs (< 3 vertices, zero area).
StatusOr<std::vector<Triangle>> TriangulatePolygon(const Polygon& polygon);

/// Triangulates a hole-free ring. The ring may be in either orientation.
StatusOr<std::vector<Triangle>> TriangulateRing(const Ring& ring);

/// Sum of triangle areas — equal to Polygon::Area() for valid inputs (the
/// property the tests enforce).
double TotalArea(const std::vector<Triangle>& triangles);

}  // namespace urbane::geometry

#endif  // URBANE_GEOMETRY_TRIANGULATE_H_
