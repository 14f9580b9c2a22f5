#include "geometry/clip.h"

namespace urbane::geometry {

bool ClipSegmentToBox(const BoundingBox& box, Vec2& a, Vec2& b) {
  double t0 = 0.0;
  double t1 = 1.0;
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  const double p[4] = {-dx, dx, -dy, dy};
  const double q[4] = {a.x - box.min_x, box.max_x - a.x, a.y - box.min_y,
                       box.max_y - a.y};
  for (int i = 0; i < 4; ++i) {
    if (p[i] == 0.0) {
      if (q[i] < 0.0) {
        return false;  // parallel and outside
      }
      continue;
    }
    const double r = q[i] / p[i];
    if (p[i] < 0.0) {
      if (r > t1) return false;
      if (r > t0) t0 = r;
    } else {
      if (r < t0) return false;
      if (r < t1) t1 = r;
    }
  }
  const Vec2 original_a = a;
  a = original_a + Vec2{dx, dy} * t0;
  b = original_a + Vec2{dx, dy} * t1;
  return true;
}

bool SegmentIntersectsBox(const BoundingBox& box, const Vec2& a,
                          const Vec2& b) {
  Vec2 ca = a;
  Vec2 cb = b;
  return ClipSegmentToBox(box, ca, cb);
}

bool PolygonBoundaryIntersectsBox(const Polygon& polygon,
                                  const BoundingBox& box) {
  auto ring_hits = [&](const Ring& ring) {
    const std::size_t n = ring.size();
    for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
      if (SegmentIntersectsBox(box, ring[j], ring[i])) {
        return true;
      }
    }
    return false;
  };
  if (ring_hits(polygon.outer())) return true;
  for (const Ring& hole : polygon.holes()) {
    if (ring_hits(hole)) return true;
  }
  return false;
}

bool PolygonContainsBox(const Polygon& polygon, const BoundingBox& box) {
  // No ring edge touches the box, so the box is uniformly inside or outside
  // the polygon; any interior sample decides which.
  if (PolygonBoundaryIntersectsBox(polygon, box)) {
    return false;
  }
  return polygon.Contains(box.Center());
}

}  // namespace urbane::geometry
