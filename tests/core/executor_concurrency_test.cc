// One executor, many threads: executors are immutable after Create, so
// concurrent Execute calls on ONE shared instance must each return the
// serial answer bit for bit and publish their own pass costs into their
// own profile. tools/check.sh runs this suite under TSan, where any
// per-query state left on an executor shows up as a data race.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/accurate_join.h"
#include "core/index_join.h"
#include "core/quadtree_join.h"
#include "core/raster_join.h"
#include "core/scan_join.h"
#include "obs/profile.h"
#include "shard/sharded_executor.h"
#include "testing/test_worlds.h"

namespace urbane::core {
namespace {

constexpr int kThreads = 4;
constexpr int kRounds = 3;

struct Outcome {
  Status status;
  QueryResult result;
  std::string profile;  // deterministic fields of the query's profile
};

/// The profile with every measured field zeroed.
std::string CanonicalCounters(const obs::QueryProfile& profile) {
  data::JsonValue doc = profile.ToJson();
  obs::CanonicalizeProfileJson(&doc);
  return doc.Dump(-1);
}

Outcome RunQuery(const SpatialAggregationExecutor& executor,
                 AggregationQuery query) {
  obs::QueryProfile profile;
  query.profile = &profile;
  Outcome outcome;
  StatusOr<QueryResult> result = executor.Execute(query);
  outcome.status = result.status();
  if (result.ok()) outcome.result = std::move(*result);
  outcome.profile = CanonicalCounters(profile);
  return outcome;
}

std::uint64_t Bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectBitIdentical(const QueryResult& got, const QueryResult& want,
                        const std::string& what) {
  ASSERT_EQ(got.values.size(), want.values.size()) << what;
  ASSERT_EQ(got.error_bounds.size(), want.error_bounds.size()) << what;
  for (std::size_t r = 0; r < want.values.size(); ++r) {
    EXPECT_EQ(Bits(got.values[r]), Bits(want.values[r]))
        << what << " region " << r;
    EXPECT_EQ(got.counts[r], want.counts[r]) << what << " region " << r;
  }
  for (std::size_t r = 0; r < want.error_bounds.size(); ++r) {
    EXPECT_EQ(Bits(got.error_bounds[r]), Bits(want.error_bounds[r]))
        << what << " bound " << r;
  }
}

/// Runs every query once serially on `executor`, then lets kThreads
/// threads hammer the same instance — thread t takes queries t,
/// t + kThreads, ... for kRounds rounds — and checks each concurrent
/// outcome against the serial one.
void ExpectConcurrentRunsMatchSerial(
    const SpatialAggregationExecutor& executor,
    const std::vector<AggregationQuery>& queries) {
  std::vector<Outcome> serial;
  for (const AggregationQuery& query : queries) {
    serial.push_back(RunQuery(executor, query));
    ASSERT_TRUE(serial.back().status.ok()) << serial.back().status;
  }
  std::vector<std::vector<std::pair<std::size_t, Outcome>>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t q = t; q < queries.size(); q += kThreads) {
          seen[t].emplace_back(q, RunQuery(executor, queries[q]));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (const auto& [q, outcome] : seen[t]) {
      const std::string what =
          "thread " + std::to_string(t) + " query " + std::to_string(q);
      ASSERT_TRUE(outcome.status.ok()) << what << ": " << outcome.status;
      ExpectBitIdentical(outcome.result, serial[q].result, what);
      EXPECT_EQ(outcome.profile, serial[q].profile) << what;
    }
  }
}

std::vector<FilterSpec> Filters() {
  std::vector<FilterSpec> filters(4);
  filters[1].WithTime(10000, 60000);
  filters[2].WithRange("v", -4.0, 6.0);
  filters[3].WithWindow(geometry::BoundingBox(15, 20, 75, 85));
  filters[3].WithTime(0, 70000);
  return filters;
}

std::vector<AggregateSpec> Aggregates() {
  return {AggregateSpec::Count(), AggregateSpec::Sum("v"),
          AggregateSpec::Avg("v"), AggregateSpec::Min("v"),
          AggregateSpec::Max("v")};
}

class ExecutorConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    points_ = testing::MakeUniformPoints(6000, 0xC0C0);
    regions_ = testing::MakeRandomRegions(5, 0xC0C1);
    raster_options_.resolution = 128;
  }

  AggregationQuery MakeQuery(const FilterSpec& filter,
                             const AggregateSpec& aggregate) const {
    AggregationQuery query;
    query.points = &points_;
    query.regions = &regions_;
    query.filter = filter;
    query.aggregate = aggregate;
    return query;
  }

  /// Every (filter, aggregate) pair, indexed filter-major, so thread t's
  /// stride through the list mixes filters and aggregates.
  std::vector<AggregationQuery> Queries() const {
    std::vector<AggregationQuery> queries;
    for (const FilterSpec& filter : Filters()) {
      for (const AggregateSpec& aggregate : Aggregates()) {
        queries.push_back(MakeQuery(filter, aggregate));
      }
    }
    return queries;
  }

  data::PointTable points_;
  data::RegionSet regions_;
  RasterJoinOptions raster_options_;
};

TEST_F(ExecutorConcurrencyTest, ScanJoin) {
  auto executor = ScanJoin::Create(points_, regions_);
  ASSERT_TRUE(executor.ok());
  ExpectConcurrentRunsMatchSerial(**executor, Queries());
}

TEST_F(ExecutorConcurrencyTest, IndexJoin) {
  auto executor = IndexJoin::Create(points_, regions_);
  ASSERT_TRUE(executor.ok());
  ExpectConcurrentRunsMatchSerial(**executor, Queries());
}

TEST_F(ExecutorConcurrencyTest, QuadtreeJoin) {
  auto executor = QuadtreeJoin::Create(points_, regions_);
  ASSERT_TRUE(executor.ok());
  ExpectConcurrentRunsMatchSerial(**executor, Queries());
}

TEST_F(ExecutorConcurrencyTest, BoundedRasterJoin) {
  auto executor = BoundedRasterJoin::Create(points_, regions_,
                                            raster_options_);
  ASSERT_TRUE(executor.ok());
  ExpectConcurrentRunsMatchSerial(**executor, Queries());
}

TEST_F(ExecutorConcurrencyTest, AccurateRasterJoin) {
  auto executor = AccurateRasterJoin::Create(points_, regions_,
                                             raster_options_);
  ASSERT_TRUE(executor.ok());
  ExpectConcurrentRunsMatchSerial(**executor, Queries());
}

TEST_F(ExecutorConcurrencyTest, ShardedExecutor) {
  shard::ShardedExecutorOptions options;
  options.num_shards = 3;
  auto executor = shard::ShardedExecutor::Create(
      points_, regions_, ExecutionMethod::kBoundedRaster, options,
      raster_options_);
  ASSERT_TRUE(executor.ok());
  ExpectConcurrentRunsMatchSerial(**executor, Queries());
}

}  // namespace
}  // namespace urbane::core
