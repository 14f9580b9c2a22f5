#include "geometry/mercator.h"

#include <cmath>

namespace urbane::geometry {

namespace {
constexpr double kEarthRadiusMeters = 6378137.0;
constexpr double kDegToRad = M_PI / 180.0;
constexpr double kRadToDeg = 180.0 / M_PI;
}  // namespace

Vec2 LonLatToMercator(const LonLat& ll) {
  const double x = kEarthRadiusMeters * ll.lon * kDegToRad;
  const double lat_rad = ll.lat * kDegToRad;
  const double y =
      kEarthRadiusMeters * std::log(std::tan(M_PI / 4.0 + lat_rad / 2.0));
  return {x, y};
}

LonLat MercatorToLonLat(const Vec2& xy) {
  LonLat ll;
  ll.lon = xy.x / kEarthRadiusMeters * kRadToDeg;
  ll.lat = (2.0 * std::atan(std::exp(xy.y / kEarthRadiusMeters)) - M_PI / 2.0) *
           kRadToDeg;
  return ll;
}

BoundingBox ProjectBounds(const LonLat& min_corner, const LonLat& max_corner) {
  BoundingBox box;
  box.Extend(LonLatToMercator(min_corner));
  box.Extend(LonLatToMercator(max_corner));
  return box;
}

BoundingBox NycMercatorBounds() {
  // Roughly the five boroughs: 74.26W–73.70W, 40.49N–40.92N.
  return ProjectBounds(LonLat{-74.26, 40.49}, LonLat{-73.70, 40.92});
}

}  // namespace urbane::geometry
