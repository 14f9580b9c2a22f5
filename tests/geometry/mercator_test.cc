#include "geometry/mercator.h"

#include <gtest/gtest.h>

namespace urbane::geometry {
namespace {

TEST(MercatorTest, OriginMapsToOrigin) {
  const Vec2 xy = LonLatToMercator({0.0, 0.0});
  EXPECT_NEAR(xy.x, 0.0, 1e-9);
  EXPECT_NEAR(xy.y, 0.0, 1e-9);
}

TEST(MercatorTest, RoundTripsLonLat) {
  const LonLat nyc{-73.9857, 40.7484};  // Empire State Building
  const LonLat back = MercatorToLonLat(LonLatToMercator(nyc));
  EXPECT_NEAR(back.lon, nyc.lon, 1e-9);
  EXPECT_NEAR(back.lat, nyc.lat, 1e-9);
}

TEST(MercatorTest, KnownProjectionValues) {
  // Web-Mercator x at lon=180 is pi * R.
  const Vec2 xy = LonLatToMercator({180.0, 0.0});
  EXPECT_NEAR(xy.x, M_PI * 6378137.0, 1.0);
}

TEST(MercatorTest, MonotoneInLatitude) {
  double prev = -1e300;
  for (double lat = -80; lat <= 80; lat += 5) {
    const double y = LonLatToMercator({0.0, lat}).y;
    EXPECT_GT(y, prev);
    prev = y;
  }
}

TEST(MercatorTest, ProjectBoundsOrientsCorrectly) {
  const BoundingBox box = ProjectBounds({-74.0, 40.0}, {-73.0, 41.0});
  EXPECT_LT(box.min_x, box.max_x);
  EXPECT_LT(box.min_y, box.max_y);
}

TEST(MercatorTest, NycBoundsPlausible) {
  const BoundingBox nyc = NycMercatorBounds();
  // NYC is roughly 45 km x 40 km; projected Mercator stretches by ~1/cos(40.7°).
  EXPECT_GT(nyc.Width(), 30000.0);
  EXPECT_LT(nyc.Width(), 90000.0);
  EXPECT_GT(nyc.Height(), 30000.0);
  EXPECT_LT(nyc.Height(), 90000.0);
  // Western hemisphere, northern latitude.
  EXPECT_LT(nyc.max_x, 0.0);
  EXPECT_GT(nyc.min_y, 0.0);
}

}  // namespace
}  // namespace urbane::geometry
