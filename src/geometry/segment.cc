#include "geometry/segment.h"

#include <algorithm>
#include <cmath>

namespace urbane::geometry {

bool PointOnSegment(const Vec2& p, const Segment& s) {
  if (Orient2d(s.a, s.b, p) != 0.0) {
    return false;
  }
  return p.x >= std::min(s.a.x, s.b.x) && p.x <= std::max(s.a.x, s.b.x) &&
         p.y >= std::min(s.a.y, s.b.y) && p.y <= std::max(s.a.y, s.b.y);
}

bool SegmentsIntersect(const Segment& s1, const Segment& s2) {
  const double d1 = Orient2d(s2.a, s2.b, s1.a);
  const double d2 = Orient2d(s2.a, s2.b, s1.b);
  const double d3 = Orient2d(s1.a, s1.b, s2.a);
  const double d4 = Orient2d(s1.a, s1.b, s2.b);

  if (((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
      ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0))) {
    return true;
  }
  if (d1 == 0 && PointOnSegment(s1.a, s2)) return true;
  if (d2 == 0 && PointOnSegment(s1.b, s2)) return true;
  if (d3 == 0 && PointOnSegment(s2.a, s1)) return true;
  if (d4 == 0 && PointOnSegment(s2.b, s1)) return true;
  return false;
}

double SquaredDistancePointToSegment(const Vec2& p, const Segment& s) {
  const Vec2 d = s.b - s.a;
  const double len2 = d.SquaredNorm();
  if (len2 == 0.0) {
    return p.SquaredDistanceTo(s.a);
  }
  const double t = std::clamp((p - s.a).Dot(d) / len2, 0.0, 1.0);
  const Vec2 projection = s.a + d * t;
  return p.SquaredDistanceTo(projection);
}

}  // namespace urbane::geometry
