// The repo's central property test: over randomized worlds (points, region
// shapes, filters, aggregates), every EXACT executor must agree with the
// full-scan oracle, and the bounded raster join must stay within its
// self-reported error bound. This is the invariant that makes the raster
// substitution for the GPU pipeline trustworthy.
#include <gtest/gtest.h>

#include <cmath>

#include "core/accurate_join.h"
#include "core/index_join.h"
#include "core/quadtree_join.h"
#include "core/raster_join.h"
#include "core/scan_join.h"
#include "core/spatial_aggregation.h"
#include "data/region_generator.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "testing/test_worlds.h"

namespace urbane::core {
namespace {

struct WorldConfig {
  std::uint64_t seed;
  std::size_t num_points;
  std::size_t num_regions;
  bool tessellation;     // partition world vs overlapping star polygons
  int resolution;        // raster canvas
  AggregateKind kind;
  bool filtered;

  friend std::ostream& operator<<(std::ostream& os, const WorldConfig& c) {
    return os << "seed" << c.seed << "_pts" << c.num_points << "_reg"
              << c.num_regions << (c.tessellation ? "_tess" : "_star")
              << "_res" << c.resolution << "_"
              << AggregateKindToString(c.kind)
              << (c.filtered ? "_filtered" : "_all");
  }
};

class ExecutorEquivalenceTest : public ::testing::TestWithParam<WorldConfig> {
};

TEST_P(ExecutorEquivalenceTest, AllExactExecutorsAgreeWithScan) {
  const WorldConfig& config = GetParam();
  const auto points =
      testing::MakeUniformPoints(config.num_points, config.seed);
  const data::RegionSet regions =
      config.tessellation
          ? testing::MakeTessellationRegions(4, config.seed ^ 0xBEEF)
          : testing::MakeRandomRegions(config.num_regions,
                                       config.seed ^ 0xBEEF);

  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  query.aggregate.kind = config.kind;
  if (query.aggregate.NeedsAttribute()) {
    query.aggregate.attribute = "v";
  }
  if (config.filtered) {
    query.filter.WithTime(15000, 70000).WithRange("v", -7.5, 6.5);
  }

  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(scan.ok());
  const auto oracle = (*scan)->Execute(query);
  ASSERT_TRUE(oracle.ok());

  RasterJoinOptions options;
  options.resolution = config.resolution;

  // --- index join: exact ---
  auto index = IndexJoin::Create(points, regions);
  ASSERT_TRUE(index.ok());
  const auto index_result = (*index)->Execute(query);
  ASSERT_TRUE(index_result.ok());

  // --- quadtree join: exact ---
  auto quadtree = QuadtreeJoin::Create(points, regions);
  ASSERT_TRUE(quadtree.ok());
  const auto quadtree_result = (*quadtree)->Execute(query);
  ASSERT_TRUE(quadtree_result.ok());

  // --- accurate raster join: exact ---
  auto accurate = AccurateRasterJoin::Create(points, regions, options);
  ASSERT_TRUE(accurate.ok());
  const auto accurate_result = (*accurate)->Execute(query);
  ASSERT_TRUE(accurate_result.ok());

  for (std::size_t r = 0; r < regions.size(); ++r) {
    EXPECT_EQ(index_result->counts[r], oracle->counts[r])
        << "index join count, region " << r;
    EXPECT_EQ(quadtree_result->counts[r], oracle->counts[r])
        << "quadtree join count, region " << r;
    EXPECT_EQ(accurate_result->counts[r], oracle->counts[r])
        << "accurate join count, region " << r;
    if (oracle->counts[r] == 0) {
      continue;  // AVG/MIN/MAX finalize to NaN on empty groups
    }
    const double tol =
        1e-9 * std::max(1.0, std::fabs(oracle->values[r]));
    EXPECT_NEAR(index_result->values[r], oracle->values[r], tol)
        << "index join value, region " << r;
    EXPECT_NEAR(quadtree_result->values[r], oracle->values[r], tol)
        << "quadtree join value, region " << r;
    EXPECT_NEAR(accurate_result->values[r], oracle->values[r], tol)
        << "accurate join value, region " << r;
  }

  // --- bounded raster join: within reported bound ---
  auto bounded = BoundedRasterJoin::Create(points, regions, options);
  ASSERT_TRUE(bounded.ok());
  const auto approx = (*bounded)->Execute(query);
  ASSERT_TRUE(approx.ok());
  if (config.kind == AggregateKind::kCount ||
      config.kind == AggregateKind::kSum) {
    for (std::size_t r = 0; r < regions.size(); ++r) {
      EXPECT_LE(std::fabs(approx->values[r] - oracle->values[r]),
                approx->error_bounds[r] + 1e-6)
          << "bounded join violated its bound, region " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExecutorEquivalenceTest,
    ::testing::Values(
        // Aggregate sweep over star-polygon worlds.
        WorldConfig{101, 8000, 6, false, 128, AggregateKind::kCount, false},
        WorldConfig{102, 8000, 6, false, 128, AggregateKind::kSum, false},
        WorldConfig{103, 8000, 6, false, 128, AggregateKind::kAvg, false},
        WorldConfig{104, 8000, 6, false, 128, AggregateKind::kMin, false},
        WorldConfig{105, 8000, 6, false, 128, AggregateKind::kMax, false},
        // Filtered variants.
        WorldConfig{106, 8000, 6, false, 128, AggregateKind::kCount, true},
        WorldConfig{107, 8000, 6, false, 128, AggregateKind::kAvg, true},
        WorldConfig{108, 8000, 6, false, 128, AggregateKind::kSum, true},
        // Tessellation worlds (shared boundaries stress the pixel rules).
        WorldConfig{109, 10000, 16, true, 128, AggregateKind::kCount, false},
        WorldConfig{110, 10000, 16, true, 192, AggregateKind::kSum, true},
        WorldConfig{111, 6000, 16, true, 64, AggregateKind::kCount, true},
        // Resolution extremes.
        WorldConfig{112, 5000, 4, false, 16, AggregateKind::kCount, false},
        WorldConfig{113, 5000, 4, false, 700, AggregateKind::kCount, false},
        // Small and large worlds.
        WorldConfig{114, 200, 3, false, 128, AggregateKind::kAvg, false},
        WorldConfig{115, 30000, 10, false, 256, AggregateKind::kCount,
                    false}),
    [](const ::testing::TestParamInfo<WorldConfig>& info) {
      std::ostringstream os;
      os << info.param;
      return os.str();
    });

// Observability must be a pure observer: with metrics enabled and a
// QueryProfile attached, every executor returns bit-identical results to
// the obs-off run — unsharded and at 4 shards. Guards against
// instrumentation accidentally perturbing execution (reordered reductions,
// skipped work, shared state). Every executor also counts its filter the
// same way: `points_scanned` is the number of rows past EvaluateFilter.
TEST(ObservabilityDeterminismTest, ResultsBitIdenticalWithObservationOnAndOff) {
  const auto points = testing::MakeUniformPoints(12'000, 424242);
  const data::RegionSet regions = testing::MakeRandomRegions(8, 424242 ^ 0xBEEF);

  AggregationQuery query;
  query.aggregate = AggregateSpec::Avg("v");
  query.filter.WithTime(10000, 80000).WithRange("v", -8.0, 8.0);
  const auto selection = EvaluateFilter(query.filter, points);
  ASSERT_TRUE(selection.ok());
  const std::uint64_t passing = selection->ids.size();
  ASSERT_GT(passing, 0u);

  const ExecutionMethod methods[] = {
      ExecutionMethod::kScan, ExecutionMethod::kIndexJoin,
      ExecutionMethod::kBoundedRaster, ExecutionMethod::kAccurateRaster};

  const bool metrics_was = obs::MetricsEnabled();
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SpatialAggregation engine(points, regions);
    engine.set_num_shards(shards);
    for (const ExecutionMethod method : methods) {
      obs::SetMetricsEnabled(false);
      const auto baseline = engine.Execute(query, method);
      ASSERT_TRUE(baseline.ok()) << ExecutionMethodToString(method);

      obs::SetMetricsEnabled(true);
      obs::QueryProfile profile;
      AggregationQuery profiled = query;
      profiled.profile = &profile;
      const auto observed = engine.Execute(profiled, method);
      ASSERT_TRUE(observed.ok()) << ExecutionMethodToString(method);

      ASSERT_EQ(observed->size(), baseline->size());
      for (std::size_t r = 0; r < baseline->size(); ++r) {
        const double expect = baseline->values[r];
        const double got = observed->values[r];
        if (std::isnan(expect)) {
          EXPECT_TRUE(std::isnan(got))
              << ExecutionMethodToString(method) << " shards=" << shards
              << " region " << r;
        } else {
          EXPECT_EQ(got, expect)  // bitwise, not NEAR
              << ExecutionMethodToString(method) << " shards=" << shards
              << " region " << r;
        }
        EXPECT_EQ(observed->counts[r], baseline->counts[r])
            << ExecutionMethodToString(method) << " shards=" << shards
            << " region " << r;
      }

      // The profile actually recorded the execution it observed: the plain
      // executor (one thread) or the sharded pass (one thread per shard).
      const std::string name = ExecutionMethodToString(method);
      EXPECT_EQ(profile.method, shards > 1 ? "sharded-" + name : name);
      EXPECT_EQ(profile.threads_used, shards) << name;
      EXPECT_EQ(profile.totals.points_scanned, passing)
          << name << " shards=" << shards;
    }
  }

  // The serial quadtree executor, which lives outside the facade and so
  // reports through its attached profile and the metrics registry only.
  auto quadtree = QuadtreeJoin::Create(points, regions);
  ASSERT_TRUE(quadtree.ok());
  AggregationQuery direct = query;
  direct.points = &points;
  direct.regions = &regions;
  obs::SetMetricsEnabled(false);
  const auto baseline = (*quadtree)->Execute(direct);
  ASSERT_TRUE(baseline.ok());
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const std::uint64_t queries_before =
      registry.GetCounter("exec.quadtree.queries").Value();
  obs::QueryProfile profile;
  direct.profile = &profile;
  const auto observed = (*quadtree)->Execute(direct);
  obs::SetMetricsEnabled(metrics_was);
  ASSERT_TRUE(observed.ok());
  for (std::size_t r = 0; r < baseline->size(); ++r) {
    EXPECT_EQ(observed->counts[r], baseline->counts[r]) << "quadtree " << r;
    if (!std::isnan(baseline->values[r])) {
      EXPECT_EQ(observed->values[r], baseline->values[r]) << "quadtree " << r;
    }
  }
  EXPECT_EQ(registry.GetCounter("exec.quadtree.queries").Value(),
            queries_before + 1);
  EXPECT_EQ(profile.totals.points_scanned, passing) << "quadtree";
}

}  // namespace
}  // namespace urbane::core
