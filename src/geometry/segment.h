#ifndef URBANE_GEOMETRY_SEGMENT_H_
#define URBANE_GEOMETRY_SEGMENT_H_

#include "geometry/point.h"

namespace urbane::geometry {

/// Closed line segment between two endpoints.
struct Segment {
  Vec2 a;
  Vec2 b;

  double Length() const { return a.DistanceTo(b); }
};

/// True if point `p` lies on segment `s` (within exact arithmetic of the
/// doubles involved; collinearity uses an exact-zero cross product).
bool PointOnSegment(const Vec2& p, const Segment& s);

/// True if the closed segments intersect (including touching endpoints and
/// collinear overlap).
bool SegmentsIntersect(const Segment& s1, const Segment& s2);

/// Squared Euclidean distance from `p` to the closed segment `s`.
double SquaredDistancePointToSegment(const Vec2& p, const Segment& s);

}  // namespace urbane::geometry

#endif  // URBANE_GEOMETRY_SEGMENT_H_
