#include "raster/viewport.h"

#include <gtest/gtest.h>

namespace urbane::raster {
namespace {

using geometry::BoundingBox;
using geometry::Vec2;

TEST(ViewportTest, PixelSizesFromWorldAndResolution) {
  const Viewport vp(BoundingBox(0, 0, 100, 50), 200, 100);
  EXPECT_DOUBLE_EQ(vp.pixel_width(), 0.5);
  EXPECT_DOUBLE_EQ(vp.pixel_height(), 0.5);
  EXPECT_NEAR(vp.EpsilonWorld(), 0.5 * std::sqrt(2.0), 1e-12);
}

TEST(ViewportTest, WithSquarePixelsPreservesAspect) {
  const Viewport vp =
      Viewport::WithSquarePixels(BoundingBox(0, 0, 200, 100), 400);
  EXPECT_EQ(vp.width(), 400);
  EXPECT_EQ(vp.height(), 200);
  EXPECT_NEAR(vp.pixel_width(), vp.pixel_height(), 1e-9);
}

TEST(ViewportTest, PixelCenterIsCellMidpoint) {
  const Viewport vp(BoundingBox(0, 0, 10, 10), 10, 10);
  const Vec2 c = vp.PixelCenter(0, 0);
  EXPECT_DOUBLE_EQ(c.x, 0.5);
  EXPECT_DOUBLE_EQ(c.y, 0.5);
  const Vec2 c2 = vp.PixelCenter(9, 9);
  EXPECT_DOUBLE_EQ(c2.x, 9.5);
  EXPECT_DOUBLE_EQ(c2.y, 9.5);
}

TEST(ViewportTest, PixelCellBounds) {
  const Viewport vp(BoundingBox(0, 0, 10, 10), 10, 10);
  const BoundingBox cell = vp.PixelCell(3, 7);
  EXPECT_EQ(cell, BoundingBox(3, 7, 4, 8));
}

TEST(ViewportTest, PixelForPointBasics) {
  const Viewport vp(BoundingBox(0, 0, 10, 10), 10, 10);
  int ix;
  int iy;
  ASSERT_TRUE(vp.PixelForPoint({2.5, 7.5}, ix, iy));
  EXPECT_EQ(ix, 2);
  EXPECT_EQ(iy, 7);
}

TEST(ViewportTest, PointOnMaxEdgeFoldsIntoLastPixel) {
  const Viewport vp(BoundingBox(0, 0, 10, 10), 10, 10);
  int ix;
  int iy;
  ASSERT_TRUE(vp.PixelForPoint({10.0, 10.0}, ix, iy));
  EXPECT_EQ(ix, 9);
  EXPECT_EQ(iy, 9);
}

TEST(ViewportTest, PointOutsideRejected) {
  const Viewport vp(BoundingBox(0, 0, 10, 10), 10, 10);
  int ix;
  int iy;
  EXPECT_FALSE(vp.PixelForPoint({10.001, 5.0}, ix, iy));
  EXPECT_FALSE(vp.PixelForPoint({5.0, -0.001}, ix, iy));
}

TEST(ViewportTest, WorldToPixelContinuous) {
  const Viewport vp(BoundingBox(0, 0, 10, 10), 20, 20);
  EXPECT_DOUBLE_EQ(vp.WorldToPixelX(0.0), 0.0);
  EXPECT_DOUBLE_EQ(vp.WorldToPixelX(10.0), 20.0);
  EXPECT_DOUBLE_EQ(vp.WorldToPixelY(5.0), 10.0);
}

TEST(ViewportTest, EpsilonShrinksWithResolution) {
  const BoundingBox world(0, 0, 100, 100);
  const Viewport coarse(world, 64, 64);
  const Viewport fine(world, 1024, 1024);
  EXPECT_GT(coarse.EpsilonWorld(), fine.EpsilonWorld());
  EXPECT_NEAR(coarse.EpsilonWorld() / fine.EpsilonWorld(), 16.0, 1e-9);
}

}  // namespace
}  // namespace urbane::raster
