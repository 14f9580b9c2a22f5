#include "geometry/bounding_box.h"

#include <gtest/gtest.h>

namespace urbane::geometry {
namespace {

TEST(BoundingBoxTest, DefaultIsEmpty) {
  BoundingBox box;
  EXPECT_TRUE(box.IsEmpty());
  EXPECT_EQ(box.Width(), 0.0);
  EXPECT_EQ(box.Area(), 0.0);
}

TEST(BoundingBoxTest, ExtendWithPoints) {
  BoundingBox box;
  box.Extend({1.0, 2.0});
  EXPECT_FALSE(box.IsEmpty());
  EXPECT_EQ(box.Width(), 0.0);
  box.Extend({3.0, -1.0});
  EXPECT_EQ(box.min_x, 1.0);
  EXPECT_EQ(box.max_x, 3.0);
  EXPECT_EQ(box.min_y, -1.0);
  EXPECT_EQ(box.max_y, 2.0);
  EXPECT_DOUBLE_EQ(box.Area(), 6.0);
}

TEST(BoundingBoxTest, ExtendWithBox) {
  BoundingBox a(0, 0, 1, 1);
  a.Extend(BoundingBox(2, 2, 3, 3));
  EXPECT_EQ(a, BoundingBox(0, 0, 3, 3));
  a.Extend(BoundingBox());  // empty no-op
  EXPECT_EQ(a, BoundingBox(0, 0, 3, 3));
}

TEST(BoundingBoxTest, ContainsPointIsClosed) {
  const BoundingBox box(0, 0, 10, 10);
  EXPECT_TRUE(box.Contains(Vec2{0.0, 0.0}));
  EXPECT_TRUE(box.Contains(Vec2{10.0, 10.0}));
  EXPECT_TRUE(box.Contains(Vec2{5.0, 5.0}));
  EXPECT_FALSE(box.Contains(Vec2{10.0001, 5.0}));
  EXPECT_FALSE(box.Contains(Vec2{-0.0001, 5.0}));
}

TEST(BoundingBoxTest, ContainsBox) {
  const BoundingBox outer(0, 0, 10, 10);
  EXPECT_TRUE(outer.Contains(BoundingBox(1, 1, 9, 9)));
  EXPECT_TRUE(outer.Contains(outer));
  EXPECT_FALSE(outer.Contains(BoundingBox(5, 5, 11, 9)));
  EXPECT_FALSE(outer.Contains(BoundingBox()));  // empty
}

TEST(BoundingBoxTest, IntersectsIsSymmetricAndClosed) {
  const BoundingBox a(0, 0, 5, 5);
  const BoundingBox b(5, 5, 10, 10);  // touch at a corner
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  const BoundingBox c(6, 6, 7, 7);
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_FALSE(a.Intersects(BoundingBox()));
}

TEST(BoundingBoxTest, IntersectionComputesOverlap) {
  const BoundingBox a(0, 0, 6, 6);
  const BoundingBox b(4, 2, 10, 8);
  const BoundingBox i = a.Intersection(b);
  EXPECT_EQ(i, BoundingBox(4, 2, 6, 6));
  EXPECT_TRUE(a.Intersection(BoundingBox(7, 7, 8, 8)).IsEmpty());
}

TEST(BoundingBoxTest, ExpandedGrowsEachSide) {
  const BoundingBox box(0, 0, 2, 2);
  EXPECT_EQ(box.Expanded(1.0), BoundingBox(-1, -1, 3, 3));
  EXPECT_TRUE(BoundingBox().Expanded(5.0).IsEmpty());
}

TEST(BoundingBoxTest, Center) {
  BoundingBox box;
  box.Extend({4, 6});
  box.Extend({0, 2});
  EXPECT_EQ(box, BoundingBox(0, 2, 4, 6));
  EXPECT_EQ(box.Center(), Vec2(2.0, 4.0));
}

}  // namespace
}  // namespace urbane::geometry
