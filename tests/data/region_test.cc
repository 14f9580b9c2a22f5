#include "data/region.h"

#include <gtest/gtest.h>

namespace urbane::data {
namespace {

Region MakeSquare(std::int64_t id, double x0, double y0, double size) {
  Region region;
  region.id = id;
  region.name = "sq" + std::to_string(id);
  region.geometry = geometry::MultiPolygon(geometry::Polygon(geometry::Ring{
      {x0, y0}, {x0 + size, y0}, {x0 + size, y0 + size}, {x0, y0 + size}}));
  return region;
}

TEST(RegionSetTest, AddAndLookup) {
  RegionSet set;
  ASSERT_TRUE(set.Add(MakeSquare(10, 0, 0, 1)).ok());
  ASSERT_TRUE(set.Add(MakeSquare(20, 5, 5, 2)).ok());
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.IndexOfId(20), 1);
  EXPECT_EQ(set.IndexOfId(99), -1);
  EXPECT_EQ(set[0].name, "sq10");
}

TEST(RegionSetTest, RejectsDuplicateIds) {
  RegionSet set;
  ASSERT_TRUE(set.Add(MakeSquare(1, 0, 0, 1)).ok());
  EXPECT_FALSE(set.Add(MakeSquare(1, 5, 5, 1)).ok());
  EXPECT_EQ(set.size(), 1u);
}

TEST(RegionSetTest, RejectsEmptyGeometry) {
  RegionSet set;
  Region region;
  region.id = 1;
  region.name = "empty";
  EXPECT_FALSE(set.Add(std::move(region)).ok());
}

TEST(RegionSetTest, BoundsUnionAllRegions) {
  RegionSet set;
  ASSERT_TRUE(set.Add(MakeSquare(1, 0, 0, 1)).ok());
  ASSERT_TRUE(set.Add(MakeSquare(2, 5, 5, 2)).ok());
  EXPECT_EQ(set.Bounds(), geometry::BoundingBox(0, 0, 7, 7));
}

TEST(RegionSetTest, VertexCountAndRegionBounds) {
  RegionSet set;
  ASSERT_TRUE(set.Add(MakeSquare(1, 0, 0, 1)).ok());
  ASSERT_TRUE(set.Add(MakeSquare(2, 5, 5, 2)).ok());
  EXPECT_EQ(set.TotalVertexCount(), 8u);
  const auto boxes = set.RegionBounds();
  ASSERT_EQ(boxes.size(), 2u);
  EXPECT_EQ(boxes[1], geometry::BoundingBox(5, 5, 7, 7));
}

TEST(RegionSetTest, MemoryBytesGrowsWithGeometry) {
  RegionSet small;
  ASSERT_TRUE(small.Add(MakeSquare(1, 0, 0, 1)).ok());
  RegionSet large;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(large.Add(MakeSquare(i, i, 0, 1)).ok());
  }
  EXPECT_GT(large.MemoryBytes(), small.MemoryBytes());
}

}  // namespace
}  // namespace urbane::data
