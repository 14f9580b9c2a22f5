#ifndef URBANE_GEOMETRY_CLIP_H_
#define URBANE_GEOMETRY_CLIP_H_

#include "geometry/bounding_box.h"
#include "geometry/polygon.h"

namespace urbane::geometry {

/// Liang–Barsky segment clip; true if any part of the segment is inside,
/// with `a`/`b` replaced by the clipped endpoints.
bool ClipSegmentToBox(const BoundingBox& box, Vec2& a, Vec2& b);

/// True if the closed segment (a, b) intersects the closed box.
bool SegmentIntersectsBox(const BoundingBox& box, const Vec2& a,
                          const Vec2& b);

/// True if any ring edge of the polygon intersects the box.
bool PolygonBoundaryIntersectsBox(const Polygon& polygon,
                                  const BoundingBox& box);

/// True if the polygon (minus holes) fully contains the box.
bool PolygonContainsBox(const Polygon& polygon, const BoundingBox& box);

}  // namespace urbane::geometry

#endif  // URBANE_GEOMETRY_CLIP_H_
