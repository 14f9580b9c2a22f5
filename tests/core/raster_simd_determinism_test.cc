// The SIMD level must be invisible in results: for both raster executors,
// every aggregate, unsharded or at 4 shards, running with URBANE_SIMD=off
// must reproduce the SSE2/AVX2 runs bit for bit — values, counts and error
// bounds. The kernels are specified in integer / IEEE-754 terms that do not
// depend on lane count, and executors rebuild their caches per Create, so a
// fresh executor per level exercises the whole pipeline (Morton order,
// splat schedule, sweep caches, span kernels) at that level.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include "core/accurate_join.h"
#include "core/raster_join.h"
#include "raster/simd.h"
#include "shard/sharded_executor.h"
#include "testing/test_worlds.h"
#include "util/thread_pool.h"

namespace urbane::core {
namespace {

std::vector<raster::SimdLevel> AvailableLevels() {
  std::vector<raster::SimdLevel> levels = {raster::SimdLevel::kOff};
  const int max = static_cast<int>(raster::CpuMaxSimdLevel());
  if (max >= static_cast<int>(raster::SimdLevel::kSse2)) {
    levels.push_back(raster::SimdLevel::kSse2);
  }
  if (max >= static_cast<int>(raster::SimdLevel::kAvx2)) {
    levels.push_back(raster::SimdLevel::kAvx2);
  }
  return levels;
}

/// Restores the environment-derived level however the test exits.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(raster::SimdLevel level) {
    raster::SetSimdLevel(level);
  }
  ~ScopedSimdLevel() { raster::ResetSimdLevelFromEnv(); }
};

struct SimdDetConfig {
  bool accurate;
  AggregateKind kind;

  friend std::ostream& operator<<(std::ostream& os, const SimdDetConfig& c) {
    return os << (c.accurate ? "accurate" : "bounded") << "_"
              << AggregateKindToString(c.kind);
  }
};

/// Runs `query` on a fresh raster executor at `level`: the plain executor
/// when `shards` is 1, else a ShardedExecutor of that many row-range shards
/// scattered onto `pool`.
StatusOr<QueryResult> RunAtLevel(const SimdDetConfig& config,
                                 raster::SimdLevel level,
                                 const data::PointTable& points,
                                 const data::RegionSet& regions,
                                 const AggregationQuery& query,
                                 std::size_t shards = 1,
                                 ThreadPool* pool = nullptr) {
  ScopedSimdLevel scoped(level);
  RasterJoinOptions options;
  options.resolution = 128;
  if (shards > 1) {
    shard::ShardedExecutorOptions shard_options;
    shard_options.num_shards = shards;
    shard_options.pool = pool;
    URBANE_ASSIGN_OR_RETURN(
        auto join,
        shard::ShardedExecutor::Create(
            points, regions,
            config.accurate ? ExecutionMethod::kAccurateRaster
                            : ExecutionMethod::kBoundedRaster,
            shard_options, options));
    return join->Execute(query);
  }
  if (config.accurate) {
    URBANE_ASSIGN_OR_RETURN(
        auto join, AccurateRasterJoin::Create(points, regions, options));
    return join->Execute(query);
  }
  URBANE_ASSIGN_OR_RETURN(auto join,
                          BoundedRasterJoin::Create(points, regions, options));
  return join->Execute(query);
}

void ExpectBitIdentical(const QueryResult& got, const QueryResult& want,
                        const char* level) {
  ASSERT_EQ(got.values.size(), want.values.size()) << level;
  ASSERT_EQ(got.counts, want.counts) << level;
  for (std::size_t r = 0; r < want.values.size(); ++r) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.values[r]),
              std::bit_cast<std::uint64_t>(want.values[r]))
        << level << " value, region " << r;
  }
  ASSERT_EQ(got.error_bounds.size(), want.error_bounds.size()) << level;
  for (std::size_t r = 0; r < want.error_bounds.size(); ++r) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.error_bounds[r]),
              std::bit_cast<std::uint64_t>(want.error_bounds[r]))
        << level << " error bound, region " << r;
  }
}

class RasterSimdDeterminismTest
    : public ::testing::TestWithParam<SimdDetConfig> {};

TEST_P(RasterSimdDeterminismTest, LevelsProduceBitIdenticalResults) {
  const SimdDetConfig& config = GetParam();
  const auto points = testing::MakeUniformPoints(6000, 777);
  const data::RegionSet regions = testing::MakeRandomRegions(6, 0xFACADE);

  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  query.aggregate.kind = config.kind;
  if (query.aggregate.NeedsAttribute()) {
    query.aggregate.attribute = "v";
  }
  // Dense enough that the Morton schedule gate opens — the level sweep then
  // covers the Z-ordered splat path too.
  query.filter.WithTime(5000, 82000);

  ThreadPool pool(4);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    const auto reference = RunAtLevel(config, raster::SimdLevel::kOff,
                                      points, regions, query, shards, &pool);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (const raster::SimdLevel level : AvailableLevels()) {
      const auto result =
          RunAtLevel(config, level, points, regions, query, shards, &pool);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectBitIdentical(*result, *reference, raster::SimdLevelName(level));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllExecutorsAllAggregates, RasterSimdDeterminismTest,
    ::testing::Values(
        SimdDetConfig{false, AggregateKind::kCount},
        SimdDetConfig{false, AggregateKind::kSum},
        SimdDetConfig{false, AggregateKind::kAvg},
        SimdDetConfig{false, AggregateKind::kMin},
        SimdDetConfig{false, AggregateKind::kMax},
        SimdDetConfig{true, AggregateKind::kCount},
        SimdDetConfig{true, AggregateKind::kSum},
        SimdDetConfig{true, AggregateKind::kAvg},
        SimdDetConfig{true, AggregateKind::kMin},
        SimdDetConfig{true, AggregateKind::kMax}),
    [](const ::testing::TestParamInfo<SimdDetConfig>& info) {
      std::ostringstream os;
      os << info.param;
      return os.str();
    });

/// The sparse-selection path (row-ordered schedule, Morton gate closed)
/// must agree with the dense path's math as well: identical filters at
/// different selectivities are covered by the suite above; here a sparse
/// filter pins the gate shut and the level sweep still holds.
TEST(RasterSimdDeterminismTest, SparseSelectionLevelsAgree) {
  const auto points = testing::MakeUniformPoints(6000, 778);
  const data::RegionSet regions = testing::MakeRandomRegions(5, 0xBEA7);
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  query.aggregate = AggregateSpec::Sum("v");
  query.filter.WithTime(1000, 9000);  // ~9% selectivity: gate closed

  const SimdDetConfig bounded{false, AggregateKind::kSum};
  const auto reference =
      RunAtLevel(bounded, raster::SimdLevel::kOff, points, regions, query);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (const raster::SimdLevel level : AvailableLevels()) {
    const auto result = RunAtLevel(bounded, level, points, regions, query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectBitIdentical(*result, *reference, raster::SimdLevelName(level));
  }
}

}  // namespace
}  // namespace urbane::core
