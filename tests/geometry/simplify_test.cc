#include "geometry/simplify.h"

#include <gtest/gtest.h>

#include <cmath>

#include "geometry/segment.h"

namespace urbane::geometry {
namespace {

TEST(SimplifyPolylineTest, KeepsEndpoints) {
  const std::vector<Vec2> line = {{0, 0}, {1, 0.01}, {2, -0.01}, {3, 0}};
  const auto out = SimplifyPolyline(line, 0.1);
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out.front(), line.front());
  EXPECT_EQ(out.back(), line.back());
}

TEST(SimplifyPolylineTest, CollinearCollapsesToEndpoints) {
  const std::vector<Vec2> line = {{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}};
  const auto out = SimplifyPolyline(line, 1e-9);
  EXPECT_EQ(out.size(), 2u);
}

TEST(SimplifyPolylineTest, KeepsSignificantDeviations) {
  const std::vector<Vec2> line = {{0, 0}, {1, 5}, {2, 0}};
  const auto out = SimplifyPolyline(line, 0.5);
  EXPECT_EQ(out.size(), 3u);
}

TEST(SimplifyPolylineTest, ShortInputsUnchanged) {
  const std::vector<Vec2> two = {{0, 0}, {1, 1}};
  EXPECT_EQ(SimplifyPolyline(two, 10.0).size(), 2u);
  const std::vector<Vec2> one = {{0, 0}};
  EXPECT_EQ(SimplifyPolyline(one, 10.0).size(), 1u);
}

TEST(SimplifyPolylineTest, ErrorWithinTolerance) {
  // Noisy sine wave; every dropped vertex must be within tolerance of the
  // simplified chain.
  std::vector<Vec2> line;
  for (int i = 0; i <= 200; ++i) {
    const double x = i * 0.1;
    line.push_back({x, std::sin(x) + 0.01 * ((i % 3) - 1)});
  }
  const double tolerance = 0.05;
  const auto out = SimplifyPolyline(line, tolerance);
  ASSERT_GE(out.size(), 2u);
  EXPECT_LT(out.size(), line.size());
  for (const Vec2& p : line) {
    double best = 1e300;
    for (std::size_t k = 0; k + 1 < out.size(); ++k) {
      best = std::min(best, std::sqrt(SquaredDistancePointToSegment(
                                p, Segment{out[k], out[k + 1]})));
    }
    EXPECT_LE(best, tolerance + 1e-9);
  }
}

TEST(SimplifyPolygonTest, ReducesVerticesKeepsShape) {
  // A circle with 256 vertices simplifies heavily at a coarse tolerance but
  // keeps most of its area.
  Ring circle;
  for (int i = 0; i < 256; ++i) {
    const double a = 2.0 * M_PI * i / 256;
    circle.push_back({10.0 * std::cos(a), 10.0 * std::sin(a)});
  }
  const Polygon original(circle);
  const Polygon simplified = SimplifyPolygon(original, 0.1);
  EXPECT_LT(simplified.outer().size(), circle.size() / 2);
  EXPECT_GE(simplified.outer().size(), 3u);
  EXPECT_NEAR(simplified.Area(), original.Area(), 0.05 * original.Area());
}

TEST(SimplifyPolygonTest, TinyRingsUntouched) {
  const Polygon triangle(Ring{{0, 0}, {5, 0}, {2, 4}});
  const Polygon out = SimplifyPolygon(triangle, 100.0);
  EXPECT_EQ(out.outer().size(), 3u);
}

TEST(SimplifyPolygonTest, HolesSimplifiedOrDropped) {
  Polygon p(Ring{{0, 0}, {20, 0}, {20, 20}, {0, 20}});
  Ring hole;
  for (int i = 0; i < 64; ++i) {
    const double a = 2.0 * M_PI * i / 64;
    hole.push_back({10 + 2.0 * std::cos(a), 10 + 2.0 * std::sin(a)});
  }
  p.add_hole(hole);
  p.Normalize();
  const Polygon out = SimplifyPolygon(p, 0.2);
  ASSERT_EQ(out.holes().size(), 1u);
  EXPECT_LT(out.holes()[0].size(), 64u);
}

}  // namespace
}  // namespace urbane::geometry
