#ifndef URBANE_GEOMETRY_BOUNDING_BOX_H_
#define URBANE_GEOMETRY_BOUNDING_BOX_H_

#include <algorithm>
#include <limits>
#include <ostream>

#include "geometry/point.h"

namespace urbane::geometry {

/// Axis-aligned bounding box. Default-constructed boxes are empty (inverted
/// bounds) and absorb points via Extend().
struct BoundingBox {
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();

  BoundingBox() = default;
  BoundingBox(double min_x_in, double min_y_in, double max_x_in,
              double max_y_in)
      : min_x(min_x_in), min_y(min_y_in), max_x(max_x_in), max_y(max_y_in) {}

  bool IsEmpty() const { return min_x > max_x || min_y > max_y; }

  double Width() const { return IsEmpty() ? 0.0 : max_x - min_x; }
  double Height() const { return IsEmpty() ? 0.0 : max_y - min_y; }
  double Area() const { return Width() * Height(); }
  Vec2 Center() const {
    return {(min_x + max_x) * 0.5, (min_y + max_y) * 0.5};
  }

  void Extend(const Vec2& p) {
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }

  void Extend(const BoundingBox& other) {
    if (other.IsEmpty()) return;
    min_x = std::min(min_x, other.min_x);
    min_y = std::min(min_y, other.min_y);
    max_x = std::max(max_x, other.max_x);
    max_y = std::max(max_y, other.max_y);
  }

  /// Closed-interval point containment.
  bool Contains(const Vec2& p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }

  bool Contains(const BoundingBox& other) const {
    return !other.IsEmpty() && other.min_x >= min_x && other.max_x <= max_x &&
           other.min_y >= min_y && other.max_y <= max_y;
  }

  bool Intersects(const BoundingBox& other) const {
    return !IsEmpty() && !other.IsEmpty() && min_x <= other.max_x &&
           other.min_x <= max_x && min_y <= other.max_y &&
           other.min_y <= max_y;
  }

  /// Intersection (possibly empty).
  BoundingBox Intersection(const BoundingBox& other) const {
    BoundingBox out(std::max(min_x, other.min_x), std::max(min_y, other.min_y),
                    std::min(max_x, other.max_x),
                    std::min(max_y, other.max_y));
    return out;
  }

  /// Box grown by `margin` on every side.
  BoundingBox Expanded(double margin) const {
    if (IsEmpty()) return *this;
    return BoundingBox(min_x - margin, min_y - margin, max_x + margin,
                       max_y + margin);
  }

  bool operator==(const BoundingBox& other) const {
    if (IsEmpty() && other.IsEmpty()) return true;
    return min_x == other.min_x && min_y == other.min_y &&
           max_x == other.max_x && max_y == other.max_y;
  }
};

inline std::ostream& operator<<(std::ostream& os, const BoundingBox& b) {
  return os << "[(" << b.min_x << ", " << b.min_y << ") - (" << b.max_x
            << ", " << b.max_y << ")]";
}

}  // namespace urbane::geometry

#endif  // URBANE_GEOMETRY_BOUNDING_BOX_H_
