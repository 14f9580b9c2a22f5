#include "geometry/clip.h"

#include <gtest/gtest.h>

namespace urbane::geometry {
namespace {

TEST(ClipSegmentToBoxTest, InsideSegmentUnchanged) {
  Vec2 a{1, 1};
  Vec2 b{2, 2};
  ASSERT_TRUE(ClipSegmentToBox(BoundingBox(0, 0, 10, 10), a, b));
  EXPECT_EQ(a, Vec2(1, 1));
  EXPECT_EQ(b, Vec2(2, 2));
}

TEST(ClipSegmentToBoxTest, CrossingSegmentClipped) {
  Vec2 a{-5, 5};
  Vec2 b{15, 5};
  ASSERT_TRUE(ClipSegmentToBox(BoundingBox(0, 0, 10, 10), a, b));
  EXPECT_DOUBLE_EQ(a.x, 0.0);
  EXPECT_DOUBLE_EQ(b.x, 10.0);
}

TEST(ClipSegmentToBoxTest, OutsideSegmentRejected) {
  Vec2 a{-5, 20};
  Vec2 b{15, 20};
  EXPECT_FALSE(ClipSegmentToBox(BoundingBox(0, 0, 10, 10), a, b));
}

TEST(ClipSegmentToBoxTest, TouchingCornerAccepted) {
  Vec2 a{-1, 1};
  Vec2 b{1, -1};  // passes exactly through (0, 0)
  EXPECT_TRUE(ClipSegmentToBox(BoundingBox(0, 0, 10, 10), a, b));
}

TEST(SegmentIntersectsBoxTest, VariousCases) {
  const BoundingBox box(0, 0, 10, 10);
  EXPECT_TRUE(SegmentIntersectsBox(box, {1, 1}, {2, 2}));      // inside
  EXPECT_TRUE(SegmentIntersectsBox(box, {-5, 5}, {15, 5}));    // crossing
  EXPECT_FALSE(SegmentIntersectsBox(box, {11, 0}, {20, 10}));  // outside
  EXPECT_TRUE(SegmentIntersectsBox(box, {10, 5}, {20, 5}));    // touching
}

TEST(PolygonBoundaryIntersectsBoxTest, DetectsEdgeTouch) {
  const Polygon p(Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  EXPECT_TRUE(PolygonBoundaryIntersectsBox(p, BoundingBox(9, 9, 11, 11)));
  EXPECT_FALSE(PolygonBoundaryIntersectsBox(p, BoundingBox(3, 3, 5, 5)));
  EXPECT_FALSE(PolygonBoundaryIntersectsBox(p, BoundingBox(20, 20, 30, 30)));
}

TEST(PolygonContainsBoxTest, InteriorExteriorAndStraddle) {
  Polygon p(Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  p.add_hole(Ring{{4, 4}, {6, 4}, {6, 6}, {4, 6}});
  p.Normalize();
  EXPECT_TRUE(PolygonContainsBox(p, BoundingBox(1, 1, 3, 3)));
  EXPECT_FALSE(PolygonContainsBox(p, BoundingBox(20, 20, 21, 21)));
  EXPECT_FALSE(PolygonContainsBox(p, BoundingBox(-1, -1, 2, 2)));  // straddle
  EXPECT_FALSE(PolygonContainsBox(p, BoundingBox(4.5, 4.5, 5.5, 5.5)));  // in hole
  EXPECT_FALSE(PolygonContainsBox(p, BoundingBox(3, 3, 7, 7)));  // hole inside box
}

}  // namespace
}  // namespace urbane::geometry
