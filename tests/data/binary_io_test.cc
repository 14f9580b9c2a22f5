#include "data/binary_io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "data/region_generator.h"
#include "store/store_writer.h"
#include "testing/test_worlds.h"

namespace urbane::data {
namespace {

TEST(RegionSetBinaryTest, RoundTripsWithHoles) {
  TessellationOptions options;
  options.cells_x = 4;
  options.cells_y = 4;
  options.hole_probability = 0.5;
  options.bounds = geometry::BoundingBox(0, 0, 100, 100);
  const RegionSet regions = GenerateTessellation(options);
  const std::string path = ::testing::TempDir() + "/regions.urg";
  ASSERT_TRUE(WriteRegionSetBinary(regions, path).ok());
  const auto loaded = ReadRegionSetBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), regions.size());
  for (std::size_t i = 0; i < regions.size(); ++i) {
    EXPECT_EQ((*loaded)[i].id, regions[i].id);
    EXPECT_EQ((*loaded)[i].name, regions[i].name);
    EXPECT_DOUBLE_EQ((*loaded)[i].geometry.Area(), regions[i].geometry.Area());
    EXPECT_EQ((*loaded)[i].geometry.VertexCount(),
              regions[i].geometry.VertexCount());
  }
  std::remove(path.c_str());
}

TEST(RegionSetBinaryTest, RejectsWrongMagic) {
  const PointTable table = testing::MakeUniformPoints(10, 1);
  const std::string path = ::testing::TempDir() + "/cross_magic.ust";
  ASSERT_TRUE(store::WritePointStore(table, path).ok());
  // A point store is not a region-set snapshot.
  EXPECT_FALSE(ReadRegionSetBinary(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace urbane::data
