// Shard-merge oracle: for every executor x aggregate x filter x shard
// count {1,2,3,4,8} x pool size {1,4}, the sharded scatter-gather result
// must equal the unsharded executor's. On the dyadic world — attribute
// values k/256, every double sum exact — "equal" is literal bit-identity
// (NaN-aware byte compare, including float SUM/AVG and the bounded
// raster's error bounds). On a random-float world the contract is the
// one ShardedExecutor documents (DESIGN.md §11): reproducible at a fixed
// shard count on any pool, and within 1e-6-relative of the unsharded
// summation order.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/planner.h"
#include "core/query.h"
#include "shard/sharded_executor.h"
#include "testing/test_worlds.h"
#include "util/thread_pool.h"

namespace urbane::shard {
namespace {

struct OracleWorld {
  data::PointTable points;
  data::RegionSet regions;
};

const OracleWorld& DyadicWorld() {
  static const OracleWorld* world = [] {
    auto* w = new OracleWorld();
    w->points = testing::MakeDyadicPoints(4000, 0x5EED);
    w->regions = testing::MakeRandomRegions(8, 0xFACE);
    return w;
  }();
  return *world;
}

const OracleWorld& RandomWorld() {
  static const OracleWorld* world = [] {
    auto* w = new OracleWorld();
    w->points = testing::MakeUniformPoints(4000, 0xD1CE);
    w->regions = testing::MakeRandomRegions(8, 0xB0A7);
    return w;
  }();
  return *world;
}

core::RasterJoinOptions SmallCanvas() {
  core::RasterJoinOptions options;
  options.resolution = 256;
  return options;
}

std::vector<core::AggregateSpec> AllAggregates() {
  return {core::AggregateSpec::Count(), core::AggregateSpec::Sum("v"),
          core::AggregateSpec::Avg("v"), core::AggregateSpec::Min("v"),
          core::AggregateSpec::Max("v")};
}

std::vector<core::FilterSpec> OracleFilters() {
  core::FilterSpec trivial;
  core::FilterSpec window;
  window.spatial_window = geometry::BoundingBox(10.0, 10.0, 35.0, 35.0);
  core::FilterSpec combined;
  combined.spatial_window = geometry::BoundingBox(20.0, 20.0, 80.0, 80.0);
  combined.time_range = core::TimeRange{10000, 50000};
  combined.attribute_ranges.push_back({"v", -5.0, 5.0});
  return {trivial, window, combined};
}

std::uint64_t DoubleBits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Literal bit compare, except any-NaN == any-NaN (AVG/MIN/MAX of an empty
// region); +0.0 vs -0.0 still fails.
void ExpectBitIdentical(const core::QueryResult& sharded,
                        const core::QueryResult& serial,
                        const std::string& what) {
  ASSERT_EQ(sharded.size(), serial.size()) << what;
  ASSERT_EQ(sharded.error_bounds.size(), serial.error_bounds.size()) << what;
  for (std::size_t r = 0; r < serial.size(); ++r) {
    const bool both_nan =
        std::isnan(sharded.values[r]) && std::isnan(serial.values[r]);
    EXPECT_TRUE(both_nan ||
                DoubleBits(sharded.values[r]) == DoubleBits(serial.values[r]))
        << what << " region " << r << ": sharded=" << sharded.values[r]
        << " serial=" << serial.values[r];
    EXPECT_EQ(sharded.counts[r], serial.counts[r]) << what << " region " << r;
    if (!serial.error_bounds.empty()) {
      EXPECT_EQ(DoubleBits(sharded.error_bounds[r]),
                DoubleBits(serial.error_bounds[r]))
          << what << " bound " << r;
    }
  }
}

std::unique_ptr<core::SpatialAggregationExecutor> MakeSerial(
    const OracleWorld& world, core::ExecutionMethod method) {
  switch (method) {
    case core::ExecutionMethod::kScan: {
      auto e = core::ScanJoin::Create(world.points, world.regions);
      EXPECT_TRUE(e.ok());
      return std::move(e).value();
    }
    case core::ExecutionMethod::kIndexJoin: {
      auto e = core::IndexJoin::Create(world.points, world.regions);
      EXPECT_TRUE(e.ok());
      return std::move(e).value();
    }
    case core::ExecutionMethod::kBoundedRaster: {
      auto e = core::BoundedRasterJoin::Create(world.points, world.regions,
                                               SmallCanvas());
      EXPECT_TRUE(e.ok());
      return std::move(e).value();
    }
    case core::ExecutionMethod::kAccurateRaster: {
      auto e = core::AccurateRasterJoin::Create(world.points, world.regions,
                                                SmallCanvas());
      EXPECT_TRUE(e.ok());
      return std::move(e).value();
    }
  }
  return nullptr;
}

core::AggregationQuery MakeQuery(const OracleWorld& world,
                                 const core::AggregateSpec& aggregate,
                                 const core::FilterSpec& filter) {
  core::AggregationQuery query;
  query.points = &world.points;
  query.regions = &world.regions;
  query.aggregate = aggregate;
  query.filter = filter;
  return query;
}

struct OracleConfig {
  core::ExecutionMethod method;
  std::size_t shards;
  std::size_t threads;
};

std::string ConfigName(const ::testing::TestParamInfo<OracleConfig>& info) {
  return std::string(core::ExecutionMethodToString(info.param.method)) +
         "_m" + std::to_string(info.param.shards) + "_t" +
         std::to_string(info.param.threads);
}

class ShardedOracleTest : public ::testing::TestWithParam<OracleConfig> {};

TEST_P(ShardedOracleTest, BitIdenticalToSerialOnDyadicWorld) {
  const OracleConfig config = GetParam();
  const OracleWorld& world = DyadicWorld();
  ThreadPool pool(config.threads);

  ShardedExecutorOptions options;
  options.num_shards = config.shards;
  options.pool = &pool;
  auto sharded = ShardedExecutor::Create(world.points, world.regions,
                                         config.method, options,
                                         SmallCanvas());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  auto serial = MakeSerial(world, config.method);
  ASSERT_NE(serial, nullptr);

  for (const core::AggregateSpec& aggregate : AllAggregates()) {
    for (const core::FilterSpec& filter : OracleFilters()) {
      const core::AggregationQuery query = MakeQuery(world, aggregate, filter);
      auto sharded_result = (*sharded)->Execute(query);
      ASSERT_TRUE(sharded_result.ok()) << sharded_result.status().ToString();
      auto serial_result = serial->Execute(query);
      ASSERT_TRUE(serial_result.ok()) << serial_result.status().ToString();
      ExpectBitIdentical(
          *sharded_result, *serial_result,
          std::string(core::ExecutionMethodToString(config.method)) +
              " agg=" + std::to_string(static_cast<int>(aggregate.kind)) +
              " m=" + std::to_string(config.shards) +
              " t=" + std::to_string(config.threads));
    }
  }
}

std::vector<OracleConfig> AllConfigs() {
  std::vector<OracleConfig> configs;
  for (const core::ExecutionMethod method :
       {core::ExecutionMethod::kScan, core::ExecutionMethod::kIndexJoin,
        core::ExecutionMethod::kBoundedRaster,
        core::ExecutionMethod::kAccurateRaster}) {
    for (const std::size_t shards : {1u, 2u, 3u, 4u, 8u}) {
      for (const std::size_t threads : {1u, 4u}) {
        configs.push_back({method, shards, threads});
      }
    }
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(AllExecutors, ShardedOracleTest,
                         ::testing::ValuesIn(AllConfigs()), ConfigName);

// Random-float world: the double sums are no longer exact, so across a
// shard-count change only tolerance holds — but for a FIXED shard count
// the result must be bit-reproducible run to run and across pool sizes
// (partials merge in shard order, never completion order).
TEST(ShardedOracleRandomWorldTest, FixedShardCountIsPoolAndRunInvariant) {
  const OracleWorld& world = RandomWorld();
  for (const core::ExecutionMethod method :
       {core::ExecutionMethod::kScan, core::ExecutionMethod::kBoundedRaster}) {
    std::vector<core::QueryResult> runs;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      ThreadPool pool(threads);
      ShardedExecutorOptions options;
      options.num_shards = 3;
      options.pool = &pool;
      auto sharded = ShardedExecutor::Create(world.points, world.regions,
                                             method, options, SmallCanvas());
      ASSERT_TRUE(sharded.ok());
      for (int repeat = 0; repeat < 2; ++repeat) {
        auto result = (*sharded)->Execute(
            MakeQuery(world, core::AggregateSpec::Avg("v"),
                      core::FilterSpec()));
        ASSERT_TRUE(result.ok());
        runs.push_back(std::move(*result));
      }
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
      ExpectBitIdentical(runs[i], runs[0],
                         std::string("reproducibility run ") +
                             std::to_string(i) + " method " +
                             core::ExecutionMethodToString(method));
    }
  }
}

TEST(ShardedOracleRandomWorldTest, WithinRelativeToleranceOfSerial) {
  const OracleWorld& world = RandomWorld();
  ShardedExecutorOptions options;
  options.num_shards = 4;
  for (const core::ExecutionMethod method :
       {core::ExecutionMethod::kScan, core::ExecutionMethod::kIndexJoin,
        core::ExecutionMethod::kBoundedRaster,
        core::ExecutionMethod::kAccurateRaster}) {
    auto sharded = ShardedExecutor::Create(world.points, world.regions,
                                           method, options, SmallCanvas());
    ASSERT_TRUE(sharded.ok());
    auto serial = MakeSerial(world, method);
    for (const core::AggregateSpec& aggregate :
         {core::AggregateSpec::Sum("v"), core::AggregateSpec::Avg("v")}) {
      const core::AggregationQuery query =
          MakeQuery(world, aggregate, core::FilterSpec());
      auto sharded_result = (*sharded)->Execute(query);
      auto serial_result = serial->Execute(query);
      ASSERT_TRUE(sharded_result.ok());
      ASSERT_TRUE(serial_result.ok());
      for (std::size_t r = 0; r < serial_result->size(); ++r) {
        const double a = sharded_result->values[r];
        const double b = serial_result->values[r];
        if (std::isnan(a) || std::isnan(b)) {
          EXPECT_EQ(std::isnan(a), std::isnan(b));
          continue;
        }
        EXPECT_NEAR(a, b, 1e-6 * std::max(1.0, std::abs(b)))
            << core::ExecutionMethodToString(method) << " region " << r;
        EXPECT_EQ(sharded_result->counts[r], serial_result->counts[r]);
      }
    }
  }
}

}  // namespace
}  // namespace urbane::shard
