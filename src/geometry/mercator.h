#ifndef URBANE_GEOMETRY_MERCATOR_H_
#define URBANE_GEOMETRY_MERCATOR_H_

#include "geometry/bounding_box.h"
#include "geometry/point.h"

namespace urbane::geometry {

/// WGS84 longitude/latitude in degrees.
struct LonLat {
  double lon = 0.0;
  double lat = 0.0;
};

/// Spherical Web-Mercator (EPSG:3857) projection — the projection slippy-map
/// front ends (and Urbane's map view) use, so query geometry and screen
/// geometry share one coordinate system.
///
/// x, y are meters on the projected plane; valid |lat| < 85.05113°.
Vec2 LonLatToMercator(const LonLat& ll);
LonLat MercatorToLonLat(const Vec2& xy);

/// Projects a lon/lat bounding box (min/max in degrees) to Mercator meters.
BoundingBox ProjectBounds(const LonLat& min_corner, const LonLat& max_corner);

/// Bounds of the NYC-like synthetic world used by the data generators.
/// Chosen to match the real NYC extents so distances/areas are plausible.
BoundingBox NycMercatorBounds();

}  // namespace urbane::geometry

#endif  // URBANE_GEOMETRY_MERCATOR_H_
