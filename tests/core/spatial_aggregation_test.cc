#include "core/spatial_aggregation.h"

#include <gtest/gtest.h>

#include <string>

#include "testing/test_worlds.h"

namespace urbane::core {
namespace {

TEST(SpatialAggregationTest, ExecuteWithEachMethod) {
  const auto points = testing::MakeUniformPoints(5000, 71);
  const auto regions = testing::MakeRandomRegions(5, 72);
  RasterJoinOptions options;
  options.resolution = 128;
  SpatialAggregation engine(points, regions, options);

  AggregationQuery query;
  query.aggregate = AggregateSpec::Count();
  const auto scan = engine.Execute(query, ExecutionMethod::kScan);
  ASSERT_TRUE(scan.ok());
  for (const ExecutionMethod method :
       {ExecutionMethod::kIndexJoin, ExecutionMethod::kAccurateRaster}) {
    const auto result = engine.Execute(query, method);
    ASSERT_TRUE(result.ok());
    for (std::size_t r = 0; r < regions.size(); ++r) {
      EXPECT_EQ(result->counts[r], scan->counts[r])
          << ExecutionMethodToString(method) << " region " << r;
    }
  }
  const auto bounded = engine.Execute(query, ExecutionMethod::kBoundedRaster);
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(bounded->size(), regions.size());
}

// An executor built by one query is kept for the next: after an index
// query the planner sees the point index, unsharded and sharded alike (a
// sharded engine builds it inside its sharded wrapper).
TEST(SpatialAggregationTest, ExecutorsAreCached) {
  const auto points = testing::MakeUniformPoints(1000, 73);
  const auto regions = testing::MakeRandomRegions(3, 74);
  for (const std::size_t shards : {1u, 2u}) {
    SpatialAggregation engine(points, regions);
    engine.set_num_shards(shards);
    const auto explanation = [&engine] {
      QueryPlan plan;
      EXPECT_TRUE(engine.ExecuteAuto(AggregationQuery(), {.exact = true},
                                     &plan)
                      .ok());
      return plan.explanation;
    };
    EXPECT_NE(explanation().find("[no index]"), std::string::npos)
        << shards << " shards";
    ASSERT_TRUE(
        engine.Execute(AggregationQuery(), ExecutionMethod::kIndexJoin).ok());
    EXPECT_EQ(explanation().find("[no index]"), std::string::npos)
        << shards << " shards";
  }
}

TEST(SpatialAggregationTest, ExecuteAutoExactAgreesWithScan) {
  const auto points = testing::MakeUniformPoints(5000, 75);
  const auto regions = testing::MakeRandomRegions(4, 76);
  SpatialAggregation engine(points, regions);
  AggregationQuery query;
  QueryPlan plan;
  const auto auto_result = engine.ExecuteAuto(query, {.exact = true}, &plan);
  ASSERT_TRUE(auto_result.ok());
  EXPECT_FALSE(plan.explanation.empty());
  const auto scan_result = engine.Execute(query, ExecutionMethod::kScan);
  ASSERT_TRUE(scan_result.ok());
  for (std::size_t r = 0; r < regions.size(); ++r) {
    EXPECT_EQ(auto_result->counts[r], scan_result->counts[r]);
  }
}

TEST(SpatialAggregationTest, ExecuteAutoApproximateWithinEpsilonBound) {
  const auto points = testing::MakeUniformPoints(20000, 77);
  const auto regions = testing::MakeRandomRegions(4, 78);
  SpatialAggregation engine(points, regions);
  AggregationQuery query;
  QueryPlan plan;
  const auto result =
      engine.ExecuteAuto(query, {.exact = false, .epsilon_world = 2.0}, &plan);
  ASSERT_TRUE(result.ok());
  // The planner should have picked a raster method for 20k points.
  EXPECT_EQ(plan.method, ExecutionMethod::kBoundedRaster);
  const auto scan_result = engine.Execute(query, ExecutionMethod::kScan);
  ASSERT_TRUE(scan_result.ok());
  if (!result->error_bounds.empty()) {
    for (std::size_t r = 0; r < regions.size(); ++r) {
      EXPECT_LE(std::fabs(result->values[r] - scan_result->values[r]),
                result->error_bounds[r] + 1e-9);
    }
  }
}

TEST(SpatialAggregationTest, EstimateSelectivity) {
  const auto points = testing::MakeUniformPoints(2000, 79);
  const auto regions = testing::MakeRandomRegions(2, 80);
  SpatialAggregation engine(points, regions);
  EXPECT_DOUBLE_EQ(engine.EstimateSelectivity(FilterSpec()).value(), 1.0);
  FilterSpec half;
  half.WithRange("v", 0.0, 100.0);  // v ~ U[-10, 10] -> about half
  const auto selectivity = engine.EstimateSelectivity(half);
  ASSERT_TRUE(selectivity.ok());
  EXPECT_GT(*selectivity, 0.4);
  EXPECT_LT(*selectivity, 0.6);
}

TEST(SpatialAggregationTest, ResultCacheHitsOnRepeatQueries) {
  const auto points = testing::MakeUniformPoints(3000, 83);
  const auto regions = testing::MakeRandomRegions(3, 84);
  SpatialAggregation engine(points, regions);
  engine.set_result_cache_capacity(64);
  AggregationQuery query;
  query.filter.WithTime(1000, 50000);
  const auto first = engine.Execute(query, ExecutionMethod::kScan);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(engine.result_cache_hits(), 0u);
  const auto second = engine.Execute(query, ExecutionMethod::kScan);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine.result_cache_hits(), 1u);
  EXPECT_EQ(first->counts, second->counts);
  // A different filter or method misses.
  AggregationQuery other = query;
  other.filter.WithRange("v", 0, 1);
  ASSERT_TRUE(engine.Execute(other, ExecutionMethod::kScan).ok());
  ASSERT_TRUE(engine.Execute(query, ExecutionMethod::kIndexJoin).ok());
  EXPECT_EQ(engine.result_cache_hits(), 1u);
}

TEST(SpatialAggregationTest, ResultCacheCapacityBounded) {
  const auto points = testing::MakeUniformPoints(500, 85);
  const auto regions = testing::MakeRandomRegions(2, 86);
  SpatialAggregation engine(points, regions);
  engine.set_result_cache_capacity(2);
  for (int i = 0; i < 6; ++i) {
    AggregationQuery query;
    query.filter.WithTime(i * 1000, (i + 1) * 1000);
    ASSERT_TRUE(engine.Execute(query, ExecutionMethod::kScan).ok());
  }
  EXPECT_LE(engine.result_cache_stats().entries, 2u);
  // Capacity 0 (the default) disables caching entirely.
  engine.set_result_cache_capacity(0);
  EXPECT_EQ(engine.result_cache_stats().entries, 0u);
  AggregationQuery query;
  ASSERT_TRUE(engine.Execute(query, ExecutionMethod::kScan).ok());
  ASSERT_TRUE(engine.Execute(query, ExecutionMethod::kScan).ok());
  EXPECT_EQ(engine.result_cache_stats().entries, 0u);
}

// Regression for the stale-ε bug: a bounded-raster result memoized at a
// coarse resolution must never be served after ExecuteAuto tightens the
// canvas (the old FIFO keyed on method+query only, so the coarse answer —
// and its loose error bounds — kept hitting).
TEST(SpatialAggregationTest, AutoResolutionBumpInvalidatesStaleEpsilonHits) {
  const auto points = testing::MakeUniformPoints(20000, 87);
  const auto regions = testing::MakeRandomRegions(4, 88);
  RasterJoinOptions options;
  options.resolution = 32;  // deliberately coarse starting canvas
  SpatialAggregation engine(points, regions, options);
  engine.set_result_cache_capacity(64);

  AggregationQuery query;
  query.aggregate = AggregateSpec::Count();
  const auto coarse = engine.Execute(query, ExecutionMethod::kBoundedRaster);
  ASSERT_TRUE(coarse.ok());
  // Same query again: a legitimate hit at the unchanged resolution.
  ASSERT_TRUE(engine.Execute(query, ExecutionMethod::kBoundedRaster).ok());
  EXPECT_GE(engine.result_cache_hits(), 1u);

  const std::uint64_t epoch_before = engine.config_epoch();
  QueryPlan plan;
  const auto fine =
      engine.ExecuteAuto(query, {.exact = false, .epsilon_world = 0.5}, &plan);
  ASSERT_TRUE(fine.ok());
  ASSERT_EQ(plan.method, ExecutionMethod::kBoundedRaster);
  ASSERT_GT(plan.resolution, 32);
  EXPECT_GT(engine.config_epoch(), epoch_before);

  // Post-bump, the plain Execute must return the fine-ε answer, not the
  // memoized coarse one.
  const auto again = engine.Execute(query, ExecutionMethod::kBoundedRaster);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->values, fine->values);
  EXPECT_EQ(again->error_bounds, fine->error_bounds);
  ASSERT_EQ(coarse->error_bounds.size(), again->error_bounds.size());
  double coarse_bound = 0.0;
  double fine_bound = 0.0;
  for (std::size_t r = 0; r < regions.size(); ++r) {
    coarse_bound += coarse->error_bounds[r];
    fine_bound += again->error_bounds[r];
  }
  // The tighter canvas must have genuinely tightened the bounds — this is
  // what the old cache silently withheld from callers.
  EXPECT_LT(fine_bound, coarse_bound);
}

TEST(SpatialAggregationTest, CacheStatsCountersAndByteBound) {
  const auto points = testing::MakeUniformPoints(2000, 89);
  const auto regions = testing::MakeRandomRegions(3, 90);
  SpatialAggregation engine(points, regions);
  engine.set_result_cache_capacity(32);
  AggregationQuery query;
  query.filter.WithTime(0, 40000);
  ASSERT_TRUE(engine.Execute(query, ExecutionMethod::kScan).ok());
  ASSERT_TRUE(engine.Execute(query, ExecutionMethod::kScan).ok());
  const QueryCacheStats stats = engine.result_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_GT(stats.HitRate(), 0.0);
}

TEST(SpatialAggregationTest, InvalidQueryRejected) {
  const auto points = testing::MakeUniformPoints(100, 81);
  const auto regions = testing::MakeRandomRegions(2, 82);
  SpatialAggregation engine(points, regions);
  AggregationQuery query;
  query.aggregate = AggregateSpec::Avg("missing");
  EXPECT_FALSE(engine.Execute(query, ExecutionMethod::kScan).ok());
  EXPECT_FALSE(engine.ExecuteAuto(query, {.exact = true}).ok());
}

}  // namespace
}  // namespace urbane::core
