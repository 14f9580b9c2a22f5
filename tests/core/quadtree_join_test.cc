#include "core/quadtree_join.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

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

// Partials over a 3-way row split (candidate ranges, as shards pass them)
// merge into the unrestricted answer: dyadic values make every SUM/AVG
// fold exact, so all five aggregates must match bit for bit.
TEST(QuadtreeJoinTest, CandidateRangeSplitMergesToTheWholeAnswer) {
  const auto points = testing::MakeDyadicPoints(5000, 39);
  const auto regions = testing::MakeTessellationRegions(3, 40);
  auto quad = QuadtreeJoin::Create(points, regions);
  ASSERT_TRUE(quad.ok());
  const std::uint64_t n = points.size();
  const std::vector<RowRangeSet> thirds = {
      RowRangeSet({RowRange{0, n / 3}}),
      RowRangeSet({RowRange{n / 3, 2 * n / 3}}),
      RowRangeSet({RowRange{2 * n / 3, n}})};
  for (const AggregateSpec& aggregate :
       {AggregateSpec::Count(), AggregateSpec::Sum("v"),
        AggregateSpec::Avg("v"), AggregateSpec::Min("v"),
        AggregateSpec::Max("v")}) {
    AggregationQuery query;
    query.points = &points;
    query.regions = &regions;
    query.aggregate = aggregate;
    query.filter.WithTime(5000, 80000).WithRange("v", -8.0, 9.0);
    const auto whole = (*quad)->Execute(query);
    ASSERT_TRUE(whole.ok());
    PartialResult merged;
    merged.regions.resize(regions.size());
    for (const RowRangeSet& third : thirds) {
      query.candidate_ranges = &third;
      const auto partial = (*quad)->ExecutePartial(query);
      ASSERT_TRUE(partial.ok());
      ASSERT_TRUE(merged.Merge(*partial).ok());
    }
    const QueryResult split = merged.Finalize(aggregate.kind);
    EXPECT_EQ(split.counts, whole->counts);
    ASSERT_EQ(split.values.size(), whole->values.size());
    for (std::size_t r = 0; r < regions.size(); ++r) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(split.values[r]),
                std::bit_cast<std::uint64_t>(whole->values[r]))
          << AggregateKindToString(aggregate.kind) << " region " << r;
    }
  }
}

TEST(QuadtreeJoinTest, CancelledControlReturnsDeadlineExceeded) {
  const auto points = testing::MakeUniformPoints(2000, 41);
  const auto regions = testing::MakeRandomRegions(3, 42);
  auto quad = QuadtreeJoin::Create(points, regions);
  ASSERT_TRUE(quad.ok());
  QueryControl control;
  control.cancelled.store(true);
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  query.control = &control;
  const auto result = (*quad)->Execute(query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
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
