#include "core/index_join.h"

#include <gtest/gtest.h>

#include "core/scan_join.h"
#include "obs/profile.h"
#include "testing/test_worlds.h"

namespace urbane::core {
namespace {

TEST(IndexJoinTest, MatchesScanOnRandomWorld) {
  const auto points = testing::MakeUniformPoints(5000, 21);
  const auto regions = testing::MakeRandomRegions(8, 22);
  auto index = IndexJoin::Create(points, regions);
  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(scan.ok());

  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  const auto a = (*index)->Execute(query);
  const auto b = (*scan)->Execute(query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t r = 0; r < a->size(); ++r) {
    EXPECT_EQ(a->counts[r], b->counts[r]) << "region " << r;
    EXPECT_DOUBLE_EQ(a->values[r], b->values[r]) << "region " << r;
  }
}

TEST(IndexJoinTest, FilteredQueryMatchesScan) {
  const auto points = testing::MakeUniformPoints(5000, 23);
  const auto regions = testing::MakeRandomRegions(6, 24);
  auto index = IndexJoin::Create(points, regions);
  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(scan.ok());

  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  query.aggregate = AggregateSpec::Sum("v");
  query.filter.WithTime(20000, 60000).WithRange("v", -5.0, 5.0);
  const auto a = (*index)->Execute(query);
  const auto b = (*scan)->Execute(query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t r = 0; r < a->size(); ++r) {
    EXPECT_EQ(a->counts[r], b->counts[r]);
    EXPECT_NEAR(a->values[r], b->values[r], 1e-6);
  }
}

TEST(IndexJoinTest, GridGranularityOptionRespected) {
  const auto points = testing::MakeUniformPoints(4096, 25);
  const auto regions = testing::MakeRandomRegions(2, 25);
  IndexJoinOptions coarse;
  coarse.target_points_per_cell = 1024.0;
  IndexJoinOptions fine;
  fine.target_points_per_cell = 16.0;
  auto coarse_join = IndexJoin::Create(points, regions, coarse);
  auto fine_join = IndexJoin::Create(points, regions, fine);
  ASSERT_TRUE(coarse_join.ok());
  ASSERT_TRUE(fine_join.ok());
  const std::size_t coarse_cells =
      static_cast<std::size_t>((*coarse_join)->grid().cells_x()) *
      (*coarse_join)->grid().cells_y();
  const std::size_t fine_cells =
      static_cast<std::size_t>((*fine_join)->grid().cells_x()) *
      (*fine_join)->grid().cells_y();
  EXPECT_GT(fine_cells, coarse_cells);
}

TEST(IndexJoinTest, BulkInteriorDominatesForLargeRegions) {
  const auto points = testing::MakeUniformPoints(20000, 26);
  // One huge region covering almost everything.
  data::RegionSet regions;
  data::Region region;
  region.id = 0;
  region.name = "big";
  region.geometry = geometry::MultiPolygon(geometry::Polygon(
      geometry::Ring{{1, 1}, {99, 1}, {99, 99}, {1, 99}}));
  ASSERT_TRUE(regions.Add(std::move(region)).ok());
  auto index = IndexJoin::Create(points, regions);
  ASSERT_TRUE(index.ok());
  obs::QueryProfile profile;
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  query.profile = &profile;
  ASSERT_TRUE((*index)->Execute(query).ok());
  const obs::ProfilePassCosts& stats = profile.totals;
  EXPECT_GT(stats.points_bulk, stats.pip_tests)
      << "interior cells should dominate boundary work for a huge region";
}

TEST(IndexJoinTest, BuildTimeRecorded) {
  const auto points = testing::MakeUniformPoints(1000, 27);
  const auto regions = testing::MakeRandomRegions(2, 27);
  auto index = IndexJoin::Create(points, regions);
  ASSERT_TRUE(index.ok());
  EXPECT_GT((*index)->MemoryBytes(), 0u);
  EXPECT_EQ((*index)->name(), "index");
  EXPECT_TRUE((*index)->exact());
}

TEST(IndexJoinTest, WrongRegionsRejected) {
  const auto points = testing::MakeUniformPoints(100, 28);
  const auto regions = testing::MakeRandomRegions(2, 28);
  const auto other_regions = testing::MakeRandomRegions(2, 29);
  auto index = IndexJoin::Create(points, regions);
  ASSERT_TRUE(index.ok());
  AggregationQuery query;
  query.points = &points;
  query.regions = &other_regions;
  EXPECT_FALSE((*index)->Execute(query).ok());
}

}  // namespace
}  // namespace urbane::core
