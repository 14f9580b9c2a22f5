#include "geometry/polygon.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace urbane::geometry {
namespace {

Ring UnitSquare() { return {{0, 0}, {1, 0}, {1, 1}, {0, 1}}; }

Polygon SquareWithHole() {
  Polygon p(Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  p.add_hole(Ring{{4, 4}, {6, 4}, {6, 6}, {4, 6}});
  p.Normalize();
  return p;
}

TEST(RingSignedAreaTest, OrientationDeterminesSign) {
  EXPECT_DOUBLE_EQ(RingSignedArea(UnitSquare()), 1.0);
  Ring cw = UnitSquare();
  std::reverse(cw.begin(), cw.end());
  EXPECT_DOUBLE_EQ(RingSignedArea(cw), -1.0);
  EXPECT_TRUE(RingIsCounterClockwise(UnitSquare()));
  EXPECT_FALSE(RingIsCounterClockwise(cw));
}

TEST(RingSignedAreaTest, DegenerateRingsAreZero) {
  EXPECT_EQ(RingSignedArea({}), 0.0);
  EXPECT_EQ(RingSignedArea({{1, 1}, {2, 2}}), 0.0);
  EXPECT_EQ(RingSignedArea({{0, 0}, {1, 1}, {2, 2}}), 0.0);  // collinear
}

TEST(RingContainsTest, InteriorAndExterior) {
  const Ring square = UnitSquare();
  EXPECT_TRUE(RingContains(square, {0.5, 0.5}));
  EXPECT_FALSE(RingContains(square, {1.5, 0.5}));
  EXPECT_FALSE(RingContains(square, {-0.5, 0.5}));
  EXPECT_FALSE(RingContains(square, {0.5, 2.0}));
}

TEST(RingContainsTest, BoundaryIsInclusive) {
  const Ring square = UnitSquare();
  EXPECT_TRUE(RingContains(square, {0.0, 0.5}));
  EXPECT_TRUE(RingContains(square, {1.0, 0.5}));
  EXPECT_TRUE(RingContains(square, {0.5, 0.0}));
  EXPECT_TRUE(RingContains(square, {0.0, 0.0}));  // vertex
}

TEST(RingContainsTest, ConcavePolygon) {
  // A "U" shape: the notch is outside.
  const Ring u = {{0, 0}, {6, 0}, {6, 4}, {4, 4}, {4, 2}, {2, 2}, {2, 4}, {0, 4}};
  EXPECT_TRUE(RingContains(u, {1, 3}));
  EXPECT_TRUE(RingContains(u, {5, 3}));
  EXPECT_FALSE(RingContains(u, {3, 3}));  // in the notch
  EXPECT_TRUE(RingContains(u, {3, 1}));
}

TEST(RingContainsTest, CrossingAndWindingAgreeOnRandomSimplePolygons) {
  Rng rng(404);
  for (int trial = 0; trial < 20; ++trial) {
    // Star-convex polygon: always simple.
    Ring ring;
    const int n = 3 + static_cast<int>(rng.NextUint64(12));
    for (int i = 0; i < n; ++i) {
      const double angle = 2.0 * M_PI * i / n;
      const double radius = rng.NextDouble(0.5, 2.0);
      ring.push_back({radius * std::cos(angle), radius * std::sin(angle)});
    }
    for (int q = 0; q < 200; ++q) {
      const Vec2 p{rng.NextDouble(-2.5, 2.5), rng.NextDouble(-2.5, 2.5)};
      EXPECT_EQ(RingContains(ring, p), RingContainsWinding(ring, p))
          << "trial " << trial << " point " << p;
    }
  }
}

TEST(PolygonTest, AreaSubtractsHoles) {
  const Polygon p = SquareWithHole();
  EXPECT_DOUBLE_EQ(p.Area(), 100.0 - 4.0);
  EXPECT_DOUBLE_EQ(Polygon(UnitSquare()).Area(), 1.0);
}

TEST(PolygonTest, PerimeterSumsAllRings) {
  const Polygon p = SquareWithHole();
  EXPECT_DOUBLE_EQ(p.Perimeter(), 40.0 + 8.0);
}

TEST(PolygonTest, ContainsRespectsHoles) {
  const Polygon p = SquareWithHole();
  EXPECT_TRUE(p.Contains({1, 1}));
  EXPECT_FALSE(p.Contains({5, 5}));      // inside the hole
  EXPECT_TRUE(p.Contains({4, 5}));       // on the hole boundary -> inside
  EXPECT_FALSE(p.Contains({11, 5}));     // outside
}

TEST(PolygonTest, CentroidOfSquare) {
  const Polygon p(UnitSquare());
  const Vec2 c = p.Centroid();
  EXPECT_NEAR(c.x, 0.5, 1e-12);
  EXPECT_NEAR(c.y, 0.5, 1e-12);
}

TEST(PolygonTest, CentroidWithSymmetricHoleStaysCentered) {
  const Polygon p = SquareWithHole();
  const Vec2 c = p.Centroid();
  EXPECT_NEAR(c.x, 5.0, 1e-9);
  EXPECT_NEAR(c.y, 5.0, 1e-9);
}

TEST(PolygonTest, CentroidOrientationInvariant) {
  Ring cw = UnitSquare();
  std::reverse(cw.begin(), cw.end());
  const Vec2 c = Polygon(cw).Centroid();
  EXPECT_NEAR(c.x, 0.5, 1e-12);
  EXPECT_NEAR(c.y, 0.5, 1e-12);
}

TEST(PolygonTest, BoundsCoverOuterRing) {
  const Polygon p = SquareWithHole();
  EXPECT_EQ(p.Bounds(), BoundingBox(0, 0, 10, 10));
}

TEST(PolygonTest, NormalizeFixesOrientation) {
  Ring cw_outer = UnitSquare();
  std::reverse(cw_outer.begin(), cw_outer.end());
  Polygon p(cw_outer);
  p.add_hole(Ring{{0.2, 0.2}, {0.4, 0.2}, {0.4, 0.4}, {0.2, 0.4}});  // CCW hole
  p.Normalize();
  EXPECT_TRUE(RingIsCounterClockwise(p.outer()));
  EXPECT_FALSE(RingIsCounterClockwise(p.holes()[0]));
}

TEST(PolygonTest, VertexCountSumsRings) {
  EXPECT_EQ(SquareWithHole().VertexCount(), 8u);
}

TEST(PolygonTest, ValidateAcceptsGoodPolygon) {
  EXPECT_TRUE(SquareWithHole().Validate().ok());
}

TEST(PolygonTest, ValidateRejectsTooFewVertices) {
  EXPECT_FALSE(Polygon(Ring{{0, 0}, {1, 1}}).Validate().ok());
}

TEST(PolygonTest, ValidateRejectsZeroArea) {
  EXPECT_FALSE(Polygon(Ring{{0, 0}, {1, 1}, {2, 2}}).Validate().ok());
}

TEST(PolygonTest, ValidateRejectsSelfIntersection) {
  // Bowtie.
  EXPECT_FALSE(
      Polygon(Ring{{0, 0}, {2, 2}, {2, 0}, {0, 2}}).Validate().ok());
}

TEST(PolygonTest, IsSimpleAcceptsConvexAndConcave) {
  EXPECT_TRUE(Polygon(UnitSquare()).IsSimple());
  const Ring u = {{0, 0}, {6, 0}, {6, 4}, {4, 4}, {4, 2}, {2, 2}, {2, 4}, {0, 4}};
  EXPECT_TRUE(Polygon(u).IsSimple());
}

TEST(MultiPolygonTest, AggregatesParts) {
  MultiPolygon mp;
  mp.add_part(Polygon(UnitSquare()));
  mp.add_part(Polygon(Ring{{5, 5}, {7, 5}, {7, 7}, {5, 7}}));
  EXPECT_DOUBLE_EQ(mp.Area(), 1.0 + 4.0);
  EXPECT_EQ(mp.VertexCount(), 8u);
  EXPECT_EQ(mp.Bounds(), BoundingBox(0, 0, 7, 7));
  EXPECT_TRUE(mp.Contains({0.5, 0.5}));
  EXPECT_TRUE(mp.Contains({6, 6}));
  EXPECT_FALSE(mp.Contains({3, 3}));
}

TEST(MultiPolygonTest, CentroidIsAreaWeighted) {
  MultiPolygon mp;
  mp.add_part(Polygon(UnitSquare()));  // area 1, centroid (0.5, 0.5)
  mp.add_part(Polygon(Ring{{2, 0}, {4, 0}, {4, 2}, {2, 2}}));  // area 4, (3,1)
  const Vec2 c = mp.Centroid();
  EXPECT_NEAR(c.x, (0.5 * 1 + 3.0 * 4) / 5.0, 1e-9);
  EXPECT_NEAR(c.y, (0.5 * 1 + 1.0 * 4) / 5.0, 1e-9);
}

TEST(MakeRegularPolygonTest, HasRequestedVerticesAndArea) {
  const Polygon hex = MakeRegularPolygon({0, 0}, 2.0, 6);
  EXPECT_EQ(hex.outer().size(), 6u);
  // Regular hexagon area: 3*sqrt(3)/2 * r^2.
  EXPECT_NEAR(hex.Area(), 3.0 * std::sqrt(3.0) / 2.0 * 4.0, 1e-9);
  EXPECT_TRUE(RingIsCounterClockwise(hex.outer()));
}

}  // namespace
}  // namespace urbane::geometry
