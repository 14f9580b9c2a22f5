// Concurrent-session safety of the SpatialAggregation facade: one engine,
// many threads. Answers must equal the serial oracle bit-for-bit (executors
// run serially inside per-method locks; cache hits are copies), and the
// whole suite must be clean under `-DURBANE_SANITIZE=thread` (tools/check.sh
// runs exactly this file under TSan).
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/spatial_aggregation.h"
#include "testing/test_worlds.h"

namespace urbane::core {
namespace {

std::vector<AggregationQuery> QueryMix() {
  std::vector<AggregationQuery> queries;
  for (int w = 0; w < 3; ++w) {
    AggregationQuery query;
    query.aggregate = AggregateSpec::Count();
    query.filter.WithTime(w * 10000, 30000 + w * 15000);
    queries.push_back(query);
  }
  AggregationQuery sum;
  sum.aggregate = AggregateSpec::Sum("v");
  sum.filter.WithTime(5000, 70000);
  queries.push_back(sum);
  AggregationQuery filtered;
  filtered.aggregate = AggregateSpec::Count();
  filtered.filter.WithRange("v", 0.0, 10.0);
  queries.push_back(filtered);
  AggregationQuery windowed;
  windowed.aggregate = AggregateSpec::Count();
  windowed.filter.WithWindow(geometry::BoundingBox(10, 10, 80, 80));
  queries.push_back(windowed);
  return queries;
}

TEST(EngineConcurrencyTest, HammeredEngineMatchesSerialOracle) {
  const auto points = testing::MakeUniformPoints(4000, 95);
  const auto regions = testing::MakeRandomRegions(3, 96);
  RasterJoinOptions options;
  options.resolution = 128;

  const std::vector<AggregationQuery> queries = QueryMix();
  const ExecutionMethod methods[] = {
      ExecutionMethod::kScan, ExecutionMethod::kIndexJoin,
      ExecutionMethod::kBoundedRaster, ExecutionMethod::kAccurateRaster};

  // Serial oracle: a private engine answers every (query, method) pair.
  SpatialAggregation oracle(points, regions, options);
  std::vector<std::vector<QueryResult>> expected(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (const ExecutionMethod method : methods) {
      auto result = oracle.Execute(queries[q], method);
      ASSERT_TRUE(result.ok()) << result.status();
      expected[q].push_back(std::move(*result));
    }
  }

  SpatialAggregation engine(points, regions, options);
  engine.set_result_cache_capacity(128);
  constexpr int kThreads = 4;
  constexpr int kIters = 24;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<int> errors(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t q = (t * 31 + i * 7) % queries.size();
        const std::size_t m = (t + i) % 4;
        const auto result = engine.Execute(queries[q], methods[m]);
        if (!result.ok()) {
          ++errors[t];
          continue;
        }
        const QueryResult& want = expected[q][m];
        if (result->values != want.values || result->counts != want.counts ||
            result->error_bounds != want.error_bounds) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[t], 0) << "thread " << t;
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  // Revisit traffic must actually have been served from the cache.
  EXPECT_GT(engine.result_cache_hits(), 0u);
  EXPECT_LE(engine.result_cache_stats().entries, 128u);
}

TEST(EngineConcurrencyTest, ConcurrentAutoRebuildIsSafe) {
  const auto points = testing::MakeUniformPoints(20000, 97);
  const auto regions = testing::MakeRandomRegions(4, 98);
  RasterJoinOptions options;
  options.resolution = 32;
  SpatialAggregation engine(points, regions, options);
  engine.set_result_cache_capacity(64);

  AggregationQuery query;
  query.aggregate = AggregateSpec::Count();

  constexpr int kThreads = 4;
  constexpr int kIters = 8;
  std::vector<int> errors(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        StatusOr<QueryResult> result =
            (t % 2 == 0)
                // Planners force resolution bumps (executor rebuilds)...
                ? engine.ExecuteAuto(query, {.exact = false,
                                             .epsilon_world =
                                                 i % 2 == 0 ? 2.0 : 0.5})
                // ...while other sessions execute on the same executor.
                : engine.Execute(query, ExecutionMethod::kBoundedRaster);
        if (!result.ok()) {
          ++errors[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[t], 0) << "thread " << t;
  }

  // The resolution only ratchets up, so after the dust settles the engine
  // answers at the finest requested ε — bit-identical to a fresh engine
  // built directly at that resolution.
  RasterJoinOptions fine = options;
  fine.resolution = ResolutionForEpsilon(CanvasWorld(regions), 0.5);
  ASSERT_GT(fine.resolution, 32);
  SpatialAggregation settled_oracle(points, regions, fine);
  const auto want =
      settled_oracle.Execute(query, ExecutionMethod::kBoundedRaster);
  ASSERT_TRUE(want.ok());
  const auto settled = engine.Execute(query, ExecutionMethod::kBoundedRaster);
  ASSERT_TRUE(settled.ok());
  EXPECT_EQ(settled->values, want->values);
  EXPECT_EQ(settled->error_bounds, want->error_bounds);
}

}  // namespace
}  // namespace urbane::core
