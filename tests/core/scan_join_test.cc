#include "core/scan_join.h"

#include <gtest/gtest.h>

#include "obs/profile.h"
#include "testing/test_worlds.h"

namespace urbane::core {
namespace {

TEST(ScanJoinTest, CountsPointsInSquare) {
  // 4 points, one square region covering two of them.
  data::PointTable points(data::Schema({"v"}));
  ASSERT_TRUE(points.AppendRow(1, 1, 0, {2.0f}).ok());
  ASSERT_TRUE(points.AppendRow(2, 2, 0, {3.0f}).ok());
  ASSERT_TRUE(points.AppendRow(9, 9, 0, {4.0f}).ok());
  ASSERT_TRUE(points.AppendRow(-5, 0, 0, {5.0f}).ok());
  data::RegionSet regions;
  data::Region square;
  square.id = 0;
  square.name = "sq";
  square.geometry = geometry::MultiPolygon(geometry::Polygon(
      geometry::Ring{{0, 0}, {5, 0}, {5, 5}, {0, 5}}));
  ASSERT_TRUE(regions.Add(std::move(square)).ok());

  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(scan.ok());
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  const auto result = (*scan)->Execute(query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_DOUBLE_EQ(result->values[0], 2.0);
  EXPECT_EQ(result->counts[0], 2u);
  EXPECT_TRUE(result->error_bounds.empty());  // exact executor
}

TEST(ScanJoinTest, AllAggregateKinds) {
  data::PointTable points(data::Schema({"v"}));
  ASSERT_TRUE(points.AppendRow(1, 1, 0, {2.0f}).ok());
  ASSERT_TRUE(points.AppendRow(2, 2, 0, {8.0f}).ok());
  ASSERT_TRUE(points.AppendRow(3, 3, 0, {-4.0f}).ok());
  data::RegionSet regions;
  data::Region square;
  square.id = 0;
  square.name = "all";
  square.geometry = geometry::MultiPolygon(geometry::Polygon(
      geometry::Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}}));
  ASSERT_TRUE(regions.Add(std::move(square)).ok());
  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(scan.ok());

  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  query.aggregate = AggregateSpec::Sum("v");
  EXPECT_DOUBLE_EQ((*scan)->Execute(query)->values[0], 6.0);
  query.aggregate = AggregateSpec::Avg("v");
  EXPECT_DOUBLE_EQ((*scan)->Execute(query)->values[0], 2.0);
  query.aggregate = AggregateSpec::Min("v");
  EXPECT_DOUBLE_EQ((*scan)->Execute(query)->values[0], -4.0);
  query.aggregate = AggregateSpec::Max("v");
  EXPECT_DOUBLE_EQ((*scan)->Execute(query)->values[0], 8.0);
}

TEST(ScanJoinTest, OverlappingRegionsBothCount) {
  data::PointTable points{data::Schema(std::vector<std::string>{})};
  ASSERT_TRUE(points.AppendRow(5, 5, 0, {}).ok());
  data::RegionSet regions;
  for (int r = 0; r < 2; ++r) {
    data::Region region;
    region.id = r;
    region.name = "ov" + std::to_string(r);
    region.geometry = geometry::MultiPolygon(geometry::Polygon(
        geometry::Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}}));
    ASSERT_TRUE(regions.Add(std::move(region)).ok());
  }
  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(scan.ok());
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  const auto result = (*scan)->Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->counts[0], 1u);
  EXPECT_EQ(result->counts[1], 1u);
}

TEST(ScanJoinTest, FilterApplied) {
  data::PointTable points(data::Schema({"v"}));
  ASSERT_TRUE(points.AppendRow(1, 1, 100, {1.0f}).ok());
  ASSERT_TRUE(points.AppendRow(1, 1, 200, {9.0f}).ok());
  data::RegionSet regions;
  data::Region square;
  square.id = 0;
  square.name = "sq";
  square.geometry = geometry::MultiPolygon(geometry::Polygon(
      geometry::Ring{{0, 0}, {2, 0}, {2, 2}, {0, 2}}));
  ASSERT_TRUE(regions.Add(std::move(square)).ok());
  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(scan.ok());

  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  query.filter.WithTime(150, 300);
  EXPECT_EQ((*scan)->Execute(query)->counts[0], 1u);
  query.filter = FilterSpec();
  query.filter.WithRange("v", 0.0, 5.0);
  EXPECT_EQ((*scan)->Execute(query)->counts[0], 1u);
}

TEST(ScanJoinTest, WrongTableRejected) {
  const auto points = testing::MakeUniformPoints(10, 1);
  const auto other_points = testing::MakeUniformPoints(10, 2);
  const auto regions = testing::MakeRandomRegions(2, 1);
  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(scan.ok());
  AggregationQuery query;
  query.points = &other_points;
  query.regions = &regions;
  EXPECT_FALSE((*scan)->Execute(query).ok());
}

TEST(ScanJoinTest, StatsPopulated) {
  const auto points = testing::MakeUniformPoints(500, 3);
  const auto regions = testing::MakeRandomRegions(4, 3);
  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(scan.ok());
  obs::QueryProfile profile;
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  query.profile = &profile;
  ASSERT_TRUE((*scan)->Execute(query).ok());
  EXPECT_EQ(profile.method, "scan");
  EXPECT_EQ(profile.totals.points_scanned, 500u);
  EXPECT_GT(profile.totals.query_seconds, 0.0);
  EXPECT_EQ((*scan)->name(), "scan");
  EXPECT_TRUE((*scan)->exact());
}

TEST(ScanJoinTest, EmptyRegionSetYieldsEmptyResult) {
  const auto points = testing::MakeUniformPoints(10, 1);
  data::RegionSet regions;
  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(scan.ok());
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  const auto result = (*scan)->Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 0u);
}

}  // namespace
}  // namespace urbane::core
