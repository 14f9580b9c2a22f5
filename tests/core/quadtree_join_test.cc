#include "core/quadtree_join.h"

#include <gtest/gtest.h>

#include "core/scan_join.h"
#include "obs/profile.h"
#include "testing/test_worlds.h"

namespace urbane::core {
namespace {

TEST(QuadtreeJoinTest, MatchesScanOnRandomWorld) {
  const auto points = testing::MakeUniformPoints(6000, 31);
  const auto regions = testing::MakeRandomRegions(6, 32);
  auto quad = QuadtreeJoin::Create(points, regions);
  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(quad.ok());
  ASSERT_TRUE(scan.ok());
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  const auto a = (*quad)->Execute(query);
  const auto b = (*scan)->Execute(query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->counts, b->counts);
}

TEST(QuadtreeJoinTest, FilteredAggregatesMatchScan) {
  const auto points = testing::MakeUniformPoints(5000, 33);
  const auto regions = testing::MakeTessellationRegions(3, 34);
  auto quad = QuadtreeJoin::Create(points, regions);
  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(quad.ok());
  ASSERT_TRUE(scan.ok());
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  query.aggregate = AggregateSpec::Avg("v");
  query.filter.WithTime(10000, 60000).WithRange("v", -6.0, 9.0);
  const auto a = (*quad)->Execute(query);
  const auto b = (*scan)->Execute(query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t r = 0; r < regions.size(); ++r) {
    EXPECT_EQ(a->counts[r], b->counts[r]) << r;
    if (b->counts[r] > 0) {
      EXPECT_NEAR(a->values[r], b->values[r], 1e-9) << r;
    }
  }
}

TEST(QuadtreeJoinTest, BulkSubtreesDominateForLargeRegions) {
  const auto points = testing::MakeUniformPoints(20000, 35);
  data::RegionSet regions;
  data::Region region;
  region.id = 0;
  region.name = "big";
  region.geometry = geometry::MultiPolygon(geometry::Polygon(
      geometry::Ring{{2, 2}, {98, 2}, {98, 98}, {2, 98}}));
  ASSERT_TRUE(regions.Add(std::move(region)).ok());
  auto quad = QuadtreeJoin::Create(points, regions);
  ASSERT_TRUE(quad.ok());
  obs::QueryProfile profile;
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  query.profile = &profile;
  ASSERT_TRUE((*quad)->Execute(query).ok());
  EXPECT_GT(profile.totals.points_bulk, profile.totals.pip_tests);
}

TEST(QuadtreeJoinTest, LeafCapacityOptionRespected) {
  const auto points = testing::MakeUniformPoints(4096, 36);
  const auto regions = testing::MakeRandomRegions(2, 36);
  QuadtreeJoinOptions fine;
  fine.max_points_per_leaf = 16;
  QuadtreeJoinOptions coarse;
  coarse.max_points_per_leaf = 1024;
  auto a = QuadtreeJoin::Create(points, regions, fine);
  auto b = QuadtreeJoin::Create(points, regions, coarse);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT((*a)->tree().node_count(), (*b)->tree().node_count());
  EXPECT_EQ((*a)->name(), "quadtree");
  EXPECT_TRUE((*a)->exact());
}

TEST(QuadtreeJoinTest, WrongTableRejected) {
  const auto points = testing::MakeUniformPoints(100, 37);
  const auto other = testing::MakeUniformPoints(100, 38);
  const auto regions = testing::MakeRandomRegions(2, 37);
  auto quad = QuadtreeJoin::Create(points, regions);
  ASSERT_TRUE(quad.ok());
  AggregationQuery query;
  query.points = &other;
  query.regions = &regions;
  EXPECT_FALSE((*quad)->Execute(query).ok());
}

}  // namespace
}  // namespace urbane::core
