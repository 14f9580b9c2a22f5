// Ingest-equivalence oracle (ISSUE 10 acceptance): at every stage of an
// append/seal/flush/compact interleaving, a LiveEngine's snapshot-composed
// answer must be BIT-identical — per executor, aggregate, filter and shard
// fan-out — to a stop-the-world SpatialAggregation rebuilt
// over the same rows concatenated in canonical order (base, runs in
// generation order, hot). The dyadic world (v = k/256) makes every double
// sum exact, so "equal" is a NaN-aware byte compare, not a tolerance. The
// raster methods compose the components on one canvas, so at one shard
// they are held to the same compare on values whose sums round.
//
// Also here: the as-of watermark contract, the scoped cache-invalidation
// regression (a closed-time-range answer stays a cache hit across appends
// that only touch newer times — satellite of the same PR), and the
// incremental temporal-canvas maintenance vs. a from-scratch rebuild.
#include "ingest/live_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/planner.h"
#include "core/query.h"
#include "core/spatial_aggregation.h"
#include "data/point_table.h"
#include "data/schema.h"
#include "ingest/live_table.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "obs/slow_query_log.h"
#include "shard/sharded_executor.h"
#include "store/store_reader.h"
#include "store/store_writer.h"
#include "testing/test_worlds.h"
#include "util/random.h"
#include "util/status.h"

namespace urbane::ingest {
namespace {

data::Schema VSchema() {
  return data::Schema(std::vector<std::string>{"v"});
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/live_engine_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Dyadic batch in [lo, hi]^2 with every timestamp inside [t_lo, t_hi] —
// the cache regressions need batches confined to known time intervals.
data::PointTable MakeBatchInTime(std::size_t count, std::uint64_t seed,
                                 std::int64_t t_lo, std::int64_t t_hi,
                                 double lo = 0.0, double hi = 100.0) {
  data::PointTable table(VSchema());
  table.Reserve(count);
  Rng rng(seed);
  std::vector<float>& v = table.mutable_attribute_column(0);
  for (std::size_t i = 0; i < count; ++i) {
    table.AppendXyt(static_cast<float>(rng.NextDouble(lo, hi)),
                    static_cast<float>(rng.NextDouble(lo, hi)),
                    rng.NextInt(t_lo, t_hi));
    v.push_back(static_cast<float>(rng.NextInt(-2560, 2560)) / 256.0f);
  }
  return table;
}

// Canonical stop-the-world concatenation: base, runs in generation order
// (each in stored order), hot in arrival order — LiveSnapshot's documented
// row order.
data::PointTable ConcatSnapshot(const LiveSnapshot& snapshot) {
  data::PointTable all(VSchema());
  all.Reserve(snapshot.watermark);
  const auto append = [&all](const data::PointTable& part) {
    for (std::size_t i = 0; i < part.size(); ++i) {
      URBANE_CHECK_OK(all.AppendRow(part.x(i), part.y(i), part.t(i),
                                    {part.attribute(i, 0)}));
    }
  };
  if (snapshot.base != nullptr) append(*snapshot.base);
  for (const auto& run : snapshot.runs) append(run->table);
  append(snapshot.hot);
  return all;
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
  core::FilterSpec time_only;
  time_only.WithTime(10000, 50000);
  core::FilterSpec window;
  window.WithWindow(geometry::BoundingBox(10.0, 10.0, 35.0, 35.0));
  core::FilterSpec combined;
  combined.WithWindow(geometry::BoundingBox(20.0, 20.0, 80.0, 80.0))
      .WithTime(10000, 70000)
      .WithRange("v", -5.0, 5.0);
  return {trivial, time_only, window, combined};
}

constexpr core::ExecutionMethod kAllMethods[] = {
    core::ExecutionMethod::kScan, core::ExecutionMethod::kIndexJoin,
    core::ExecutionMethod::kBoundedRaster,
    core::ExecutionMethod::kAccurateRaster};

std::uint64_t DoubleBits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Literal bit compare, except any-NaN == any-NaN (AVG/MIN/MAX of an empty
// region).
void ExpectBitIdentical(const core::QueryResult& live,
                        const core::QueryResult& rebuilt,
                        const std::string& what) {
  ASSERT_EQ(live.size(), rebuilt.size()) << what;
  ASSERT_EQ(live.error_bounds.size(), rebuilt.error_bounds.size()) << what;
  for (std::size_t r = 0; r < rebuilt.size(); ++r) {
    const bool both_nan =
        std::isnan(live.values[r]) && std::isnan(rebuilt.values[r]);
    EXPECT_TRUE(both_nan ||
                DoubleBits(live.values[r]) == DoubleBits(rebuilt.values[r]))
        << what << " region " << r << ": live=" << live.values[r]
        << " rebuilt=" << rebuilt.values[r];
    EXPECT_EQ(live.counts[r], rebuilt.counts[r]) << what << " region " << r;
    if (!rebuilt.error_bounds.empty()) {
      EXPECT_EQ(DoubleBits(live.error_bounds[r]),
                DoubleBits(rebuilt.error_bounds[r]))
          << what << " bound " << r;
    }
  }
}

// One oracle check: every method of `methods` x aggregate x filter, asked
// of the live engine and of a stop-the-world engine rebuilt over the
// snapshot's rows concatenated, must agree bit for bit.
void ExpectMatchesRebuild(LiveTable& table, LiveEngine& live,
                          const data::RegionSet& regions,
                          const std::vector<core::ExecutionMethod>& methods,
                          const std::string& stage) {
  const LiveSnapshot snapshot = table.Snapshot();
  const data::PointTable rebuilt_rows = ConcatSnapshot(snapshot);
  ASSERT_EQ(rebuilt_rows.size(), snapshot.watermark);
  core::SpatialAggregation rebuilt(rebuilt_rows, regions, SmallCanvas());
  for (core::ExecutionMethod method : methods) {
    for (const core::AggregateSpec& aggregate : AllAggregates()) {
      std::size_t filter_index = 0;
      for (const core::FilterSpec& filter : OracleFilters()) {
        const std::string what =
            stage + "/" + core::ExecutionMethodToString(method) + "/agg" +
            std::to_string(static_cast<int>(aggregate.kind)) + "/filter" +
            std::to_string(filter_index++);
        core::AggregationQuery query;
        query.aggregate = aggregate;
        query.filter = filter;
        std::uint64_t watermark = 0;
        StatusOr<core::QueryResult> live_result =
            live.Execute(query, method, &watermark);
        ASSERT_TRUE(live_result.ok())
            << what << ": " << live_result.status().ToString();
        EXPECT_EQ(watermark, snapshot.watermark) << what;
        core::AggregationQuery rebuilt_query;
        rebuilt_query.aggregate = aggregate;
        rebuilt_query.filter = filter;
        StatusOr<core::QueryResult> rebuilt_result =
            rebuilt.Execute(rebuilt_query, method);
        ASSERT_TRUE(rebuilt_result.ok()) << what;
        ExpectBitIdentical(*live_result, *rebuilt_result, what);
      }
    }
  }
}

// The stages every oracle walks a live table through, calling `check`
// after each: hot rows, a sealed run beside hot rows, a flushed store run,
// store run + hot, a compaction, hot rows on top, and last rows appended
// outside the region box [0, 100]^2 of the oracles' tessellation, which
// count nowhere and move no canvas. `batch(count, seed, lo, hi)` makes each
// appended batch in [lo, hi]^2. The table must seal at 600 rows.
void WalkLifecycle(
    LiveTable& table,
    const std::function<data::PointTable(std::size_t, std::uint64_t, double,
                                         double)>& batch,
    const std::function<void(const std::string&)>& check) {
  check("base-only");
  ASSERT_TRUE(table.Append(batch(500, 0xA1, 0.0, 100.0)).ok());
  check("hot");
  ASSERT_TRUE(table.Append(batch(400, 0xA2, 0.0, 100.0)).ok());
  check("sealed+hot");
  ASSERT_TRUE(table.Flush().ok());
  check("one-store-run");
  ASSERT_TRUE(table.Append(batch(450, 0xA3, 0.0, 100.0)).ok());
  check("store+hot");
  ASSERT_TRUE(table.Flush().ok());
  ASSERT_TRUE(table.Compact().ok());
  check("compacted");
  ASSERT_TRUE(table.Append(batch(300, 0xA4, 0.0, 100.0)).ok());
  check("compacted+hot");
  ASSERT_TRUE(table.Append(batch(200, 0xA5, 100.0, 130.0)).ok());
  check("outside-region-box+hot");
}

struct OracleConfig {
  std::size_t shards = 1;
  bool store_backed_base = false;
  const char* name = "";
};

class LiveEngineOracleTest : public ::testing::TestWithParam<OracleConfig> {};

// The full interleaving sweep. Stages walk a row through every lifecycle
// transition; the oracle re-runs the whole executor x aggregate x filter
// grid at each stage.
TEST_P(LiveEngineOracleTest, MatchesStopTheWorldRebuildAtEveryStage) {
  const OracleConfig config = GetParam();
  const std::string dir = FreshDir(std::string("oracle_") + config.name);
  const data::RegionSet regions = testing::MakeTessellationRegions(4, 0xBEEF);

  // Base component: in-memory or a real UST1 store (zone maps attached).
  const data::PointTable base_mem = testing::MakeDyadicPoints(1500, 0x5EED);
  std::unique_ptr<store::StoreReader> reader;
  data::PointTable base_view(VSchema());
  const data::PointTable* base = &base_mem;
  const core::ZoneMapIndex* base_zone_maps = nullptr;
  if (config.store_backed_base) {
    const std::string store_path = dir + std::string(".base.ust1");
    std::filesystem::remove(store_path);
    store::StoreWriterOptions store_options;
    store_options.block_rows = 256;
    StatusOr<store::StoreWriter> writer =
        store::StoreWriter::Create(store_path, VSchema(), store_options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer->Append(base_mem).ok());
    ASSERT_TRUE(writer->Finish().ok());
    StatusOr<store::StoreReader> opened = store::StoreReader::Open(store_path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    reader = std::make_unique<store::StoreReader>(std::move(*opened));
    StatusOr<data::PointTable> mapped = reader->MappedTable();
    ASSERT_TRUE(mapped.ok());
    base_view = std::move(*mapped);
    base = &base_view;
    base_zone_maps = &reader->zone_maps();
  }

  IngestOptions ingest_options;
  ingest_options.memtable_rows = 600;  // the second append forces a seal
  ingest_options.run_block_rows = 256;
  StatusOr<std::unique_ptr<LiveTable>> table =
      LiveTable::Open(dir, VSchema(), base, base_zone_maps, ingest_options);
  ASSERT_TRUE(table.ok()) << table.status().ToString();

  LiveEngineOptions options;
  options.raster_options = SmallCanvas();
  options.num_shards = config.shards;
  LiveEngine live(table->get(), &regions, options);

  const std::vector<core::ExecutionMethod> methods(std::begin(kAllMethods),
                                                   std::end(kAllMethods));
  WalkLifecycle(**table, testing::MakeDyadicPoints,
                [&](const std::string& stage) {
                  ExpectMatchesRebuild(**table, live, regions, methods, stage);
                });
}

INSTANTIATE_TEST_SUITE_P(
    Configs, LiveEngineOracleTest,
    ::testing::Values(OracleConfig{1, false, "serial"},
                      OracleConfig{4, true, "sharded_store"}),
    [](const ::testing::TestParamInfo<OracleConfig>& info) {
      return info.param.name;
    });

// Uniform points in [lo, hi]^2 over one day whose v spans forty binades
// (sign and |v| = e^U[-14, 14] random): unlike values of one magnitude,
// whose float32 inputs sum exactly in double, these round, so the bits of
// a sum depend on the order of its additions.
data::PointTable WideRangeBatch(std::size_t count, std::uint64_t seed,
                                double lo = 0.0, double hi = 100.0) {
  data::PointTable table(VSchema());
  table.Reserve(count);
  Rng rng(seed);
  std::vector<float>& v = table.mutable_attribute_column(0);
  for (std::size_t i = 0; i < count; ++i) {
    table.AppendXyt(static_cast<float>(rng.NextDouble(lo, hi)),
                    static_cast<float>(rng.NextDouble(lo, hi)),
                    rng.NextInt(0, 86399));
    const double magnitude = std::exp(rng.NextDouble(-14.0, 14.0));
    v.push_back(static_cast<float>(rng.NextInt(0, 1) == 0 ? magnitude
                                                          : -magnitude));
  }
  return table;
}

// The raster joins compose every live component on one canvas, so at one
// shard each pixel accumulates in concatenated-row order and each boundary
// pixel's points are refined in that order: live raster answers equal the
// stop-the-world rebuild bit for bit on arbitrary floats too, where a
// reordered double sum shows, at every lifecycle stage. The scan joins
// because it composes the components the same way: one accumulator per
// region takes each component's selected rows in ascending order,
// component after component, so it too adds in concatenated-row order.
// (The index join adds each component along its own grid's cells, so only
// the dyadic oracle holds it bit for bit.)
TEST(LiveEngineTest, RasterMatchesStopTheWorldOnArbitraryFloats) {
  const std::string dir = FreshDir("oracle_arbitrary_floats");
  const data::RegionSet regions = testing::MakeTessellationRegions(4, 0xBEEF);
  const data::PointTable base = WideRangeBatch(1500, 0x5EED);
  IngestOptions ingest_options;
  ingest_options.memtable_rows = 600;  // the second append forces a seal
  ingest_options.run_block_rows = 256;
  StatusOr<std::unique_ptr<LiveTable>> table =
      LiveTable::Open(dir, VSchema(), &base, nullptr, ingest_options);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  LiveEngineOptions options;
  options.raster_options = SmallCanvas();
  LiveEngine live(table->get(), &regions, options);

  const std::vector<core::ExecutionMethod> in_row_order = {
      core::ExecutionMethod::kScan, core::ExecutionMethod::kBoundedRaster,
      core::ExecutionMethod::kAccurateRaster};
  WalkLifecycle(**table, WideRangeBatch, [&](const std::string& stage) {
    ExpectMatchesRebuild(**table, live, regions, in_row_order, stage);
  });
}

TEST(LiveEngineTest, EmptyLiveTableExecutes) {
  const std::string dir = FreshDir("empty");
  StatusOr<std::unique_ptr<LiveTable>> table =
      LiveTable::Open(dir, VSchema(), nullptr, nullptr);
  ASSERT_TRUE(table.ok());
  const data::RegionSet regions = testing::MakeTessellationRegions(2, 1);
  LiveEngine live(table->get(), &regions, LiveEngineOptions());
  core::AggregationQuery query;
  query.aggregate = core::AggregateSpec::Count();
  std::uint64_t watermark = 99;
  StatusOr<core::QueryResult> result =
      live.Execute(query, core::ExecutionMethod::kScan, &watermark);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(watermark, 0u);
  ASSERT_EQ(result->size(), regions.size());
  for (std::size_t r = 0; r < result->size(); ++r) {
    EXPECT_EQ(result->counts[r], 0u);
  }
}

// An empty live table validates a statement like every other data set:
// an unknown attribute is InvalidArgument, not an OK answer of zeros.
TEST(LiveEngineTest, EmptyLiveTableRejectsUnknownAttribute) {
  const std::string dir = FreshDir("empty_unknown_attribute");
  StatusOr<std::unique_ptr<LiveTable>> table =
      LiveTable::Open(dir, VSchema(), nullptr, nullptr);
  ASSERT_TRUE(table.ok());
  const data::RegionSet regions = testing::MakeTessellationRegions(2, 1);
  LiveEngine live(table->get(), &regions, LiveEngineOptions());
  core::AggregationQuery query;
  query.aggregate = core::AggregateSpec::Sum("no_such_column");
  const StatusOr<core::QueryResult> explicit_method =
      live.Execute(query, core::ExecutionMethod::kScan);
  EXPECT_EQ(explicit_method.status().code(), StatusCode::kInvalidArgument)
      << explicit_method.status().ToString();
  const StatusOr<core::QueryResult> planned =
      live.ExecuteAuto(query, core::AccuracyRequirement());
  EXPECT_EQ(planned.status().code(), StatusCode::kInvalidArgument)
      << planned.status().ToString();
}

// A live ExecuteAuto honors the ε the planner resolved: over the same rows
// it plans exactly as a static facade does, and answers at the planned
// canvas resolution, not at the engine's configured one.
TEST(LiveEngineTest, ExecuteAutoHonorsPlannedEpsilonResolution) {
  const data::PointTable points = testing::MakeUniformPoints(20000, 0xE1);
  const data::RegionSet regions = testing::MakeRandomRegions(16, 0xE2);
  core::RasterJoinOptions coarse;
  coarse.resolution = 64;
  const std::string dir = FreshDir("epsilon");
  StatusOr<std::unique_ptr<LiveTable>> table =
      LiveTable::Open(dir, points.schema(), &points, nullptr);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  LiveEngineOptions options;
  options.raster_options = coarse;
  LiveEngine live(table->get(), &regions, options);
  core::SpatialAggregation facade(points, regions, coarse);

  const core::AccuracyRequirement accuracy{.exact = false,
                                           .epsilon_world = 0.5};
  core::AggregationQuery query;
  query.aggregate = core::AggregateSpec::Count();
  core::QueryPlan live_plan;
  const StatusOr<core::QueryResult> from_live =
      live.ExecuteAuto(query, accuracy, nullptr, &live_plan);
  ASSERT_TRUE(from_live.ok()) << from_live.status().ToString();
  core::QueryPlan static_plan;
  ASSERT_TRUE(facade.ExecuteAuto(query, accuracy, &static_plan).ok());
  EXPECT_EQ(live_plan.method, static_plan.method);
  EXPECT_EQ(live_plan.resolution, static_plan.resolution);
  EXPECT_EQ(live_plan.explanation, static_plan.explanation);
  ASSERT_EQ(live_plan.method, core::ExecutionMethod::kBoundedRaster);
  ASSERT_GT(live_plan.resolution, coarse.resolution);

  core::RasterJoinOptions planned;
  planned.resolution = live_plan.resolution;
  auto bounded = core::BoundedRasterJoin::Create(points, regions, planned);
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
  query.points = &points;
  query.regions = &regions;
  const StatusOr<core::QueryResult> want = (*bounded)->Execute(query);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ExpectBitIdentical(*from_live, *want, "live at the planned resolution");
}

// A method's region-side state is built once per facade: twenty append +
// query cycles build the scan's R-tree once and each raster method's
// region state once, and each new hot view only its own point-side state
// — its index grid and each raster method's Morton order. A finer planned
// ε rebuilds the bounded region state. An append outside the region box
// moves no canvas: it builds no region-side state, only the new hot view's
// point-side state, and a cached answer over a closed time range stays a
// hit across it. A new shard fan-out builds no state at all.
TEST(LiveEngineTest, RegionStateBuiltOncePerRasterMethod) {
  const data::PointTable points = testing::MakeUniformPoints(20000, 0xE1);
  const data::RegionSet regions = testing::MakeRandomRegions(16, 0xE2);
  core::RasterJoinOptions coarse;
  coarse.resolution = 64;
  const std::string dir = FreshDir("region_state_builds");
  StatusOr<std::unique_ptr<LiveTable>> table =
      LiveTable::Open(dir, points.schema(), &points, nullptr);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  LiveEngineOptions options;
  options.raster_options = coarse;
  LiveEngine live(table->get(), &regions, options);

  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const auto builds = [&registry](const char* name) {
    return registry.GetCounter(name).Value();
  };
  const std::uint64_t region_before = builds("query.region_state_builds");
  const std::uint64_t point_before = builds("query.point_state_builds");
  const auto query_all = [&](const std::string& what) {
    for (const core::ExecutionMethod method : kAllMethods) {
      core::AggregationQuery query;
      query.aggregate = core::AggregateSpec::Sum("v");
      const StatusOr<core::QueryResult> result = live.Execute(query, method);
      ASSERT_TRUE(result.ok()) << what << ": " << result.status().ToString();
    }
  };

  for (int cycle = 0; cycle < 20; ++cycle) {
    ASSERT_TRUE((*table)
                    ->Append(testing::MakeUniformPoints(
                        50, 0x100 + static_cast<std::uint64_t>(cycle), 10.0,
                        90.0))
                    .ok());
    query_all("cycle " + std::to_string(cycle));
  }
  // The R-tree and the bounded and accurate region states.
  EXPECT_EQ(builds("query.region_state_builds") - region_before, 3u);
  // The base's grid and two Morton orders, then the same per hot view.
  EXPECT_EQ(builds("query.point_state_builds") - point_before, 3u + 3u * 20u);

  // Nothing new to build: the profile reports no preparation.
  obs::QueryProfile warm;
  core::AggregationQuery again;
  again.aggregate = core::AggregateSpec::Count();
  again.profile = &warm;
  ASSERT_TRUE(live.Execute(again, core::ExecutionMethod::kAccurateRaster).ok());
  EXPECT_EQ(warm.prepare_seconds, 0.0);

  // A finer planned ε rebuilds the bounded region-side state only.
  core::QueryPlan plan;
  obs::QueryProfile ratchet;
  core::AggregationQuery planned;
  planned.aggregate = core::AggregateSpec::Count();
  planned.profile = &ratchet;
  ASSERT_TRUE(live.ExecuteAuto(planned,
                               {.exact = false, .epsilon_world = 0.5},
                               nullptr, &plan)
                  .ok());
  ASSERT_EQ(plan.method, core::ExecutionMethod::kBoundedRaster);
  ASSERT_GT(plan.resolution, coarse.resolution);
  EXPECT_GT(ratchet.prepare_seconds, 0.0);
  query_all("after the ratchet");
  EXPECT_EQ(builds("query.region_state_builds") - region_before, 4u);

  // A cached answer over [0, 40000) ...
  live.set_result_cache_capacity(64);
  core::AggregationQuery closed;
  closed.aggregate = core::AggregateSpec::Count();
  closed.filter.WithTime(0, 40000);
  ASSERT_TRUE(
      live.Execute(closed, core::ExecutionMethod::kAccurateRaster).ok());
  const std::uint64_t hits = live.result_cache_stats().hits;

  // ... then an append outside the region box, later in time.
  const std::uint64_t point_outside = builds("query.point_state_builds");
  ASSERT_TRUE((*table)
                  ->Append(MakeBatchInTime(10, 0x200, 50000, 59999, 120.0,
                                           130.0))
                  .ok());
  query_all("after an append outside the region box");
  EXPECT_EQ(builds("query.region_state_builds") - region_before, 4u);
  EXPECT_EQ(builds("query.point_state_builds") - point_outside, 3u);
  ASSERT_TRUE(
      live.Execute(closed, core::ExecutionMethod::kAccurateRaster).ok());
  EXPECT_EQ(live.result_cache_stats().hits, hits + 1);

  // Four shards wrap new composed executors around the same state.
  const std::uint64_t point_sharded = builds("query.point_state_builds");
  live.set_num_shards(4);
  query_all("at four shards");
  EXPECT_EQ(builds("query.region_state_builds") - region_before, 4u);
  EXPECT_EQ(builds("query.point_state_builds"), point_sharded);
  obs::SetMetricsEnabled(metrics_were_enabled);
}

// Rows at (0, 0), ±inf, NaN and 1e30 lie outside the region box, here
// [1000, 1100]^2. Appended to a live table they change no raster answer of
// the same table without them, hot or flushed into a store run, and the
// accurate join still equals the scan. Dyadic values keep every sum exact,
// so the compares are bit for bit even where a flush orders rows apart.
TEST(LiveEngineTest, OutlierRowsChangeNoRasterAnswer) {
  data::TessellationOptions cells;
  cells.cells_x = 4;
  cells.cells_y = 4;
  cells.seed = 0xBEEF;
  cells.bounds = geometry::BoundingBox(1000.0, 1000.0, 1100.0, 1100.0);
  cells.edge_subdivisions = 3;
  cells.edge_wiggle = 0.05;
  const data::RegionSet regions = data::GenerateTessellation(cells);
  const data::PointTable base =
      testing::MakeDyadicPoints(1500, 0x5EED, 1000.0, 1100.0);
  const data::PointTable batch =
      testing::MakeDyadicPoints(500, 0xA1, 1000.0, 1100.0);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  data::PointTable outliers(VSchema());
  for (const auto& [x, y] : std::vector<std::pair<float, float>>{
           {0.0f, 0.0f},
           {kInf, 1050.0f},
           {-kInf, 1050.0f},
           {std::numeric_limits<float>::quiet_NaN(), 1050.0f},
           {1e30f, 1050.0f}}) {
    ASSERT_TRUE(outliers.AppendRow(x, y, 20000, {1.0f}).ok());
  }

  LiveEngineOptions options;
  options.raster_options = SmallCanvas();
  StatusOr<std::unique_ptr<LiveTable>> clean_table =
      LiveTable::Open(FreshDir("outliers_clean"), VSchema(), &base, nullptr);
  StatusOr<std::unique_ptr<LiveTable>> dirty_table =
      LiveTable::Open(FreshDir("outliers_dirty"), VSchema(), &base, nullptr);
  ASSERT_TRUE(clean_table.ok()) << clean_table.status().ToString();
  ASSERT_TRUE(dirty_table.ok()) << dirty_table.status().ToString();
  LiveEngine clean(clean_table->get(), &regions, options);
  LiveEngine dirty(dirty_table->get(), &regions, options);
  ASSERT_TRUE((*clean_table)->Append(batch).ok());
  ASSERT_TRUE((*dirty_table)->Append(batch).ok());
  ASSERT_TRUE((*dirty_table)->Append(outliers).ok());

  std::vector<core::FilterSpec> filters(3);
  filters[1].WithTime(10000, 50000);
  filters[2]
      .WithWindow(geometry::BoundingBox(1010.0, 1010.0, 1060.0, 1060.0))
      .WithRange("v", -5.0, 5.0);
  const auto check = [&](const std::string& stage) {
    for (const core::AggregateSpec& aggregate : AllAggregates()) {
      for (std::size_t f = 0; f < filters.size(); ++f) {
        core::AggregationQuery query;
        query.aggregate = aggregate;
        query.filter = filters[f];
        const std::string what =
            stage + "/agg" + std::to_string(static_cast<int>(aggregate.kind)) +
            "/filter" + std::to_string(f);
        const StatusOr<core::QueryResult> scan =
            dirty.Execute(query, core::ExecutionMethod::kScan);
        ASSERT_TRUE(scan.ok()) << what << ": " << scan.status().ToString();
        for (const core::ExecutionMethod method :
             {core::ExecutionMethod::kBoundedRaster,
              core::ExecutionMethod::kAccurateRaster}) {
          const StatusOr<core::QueryResult> got = dirty.Execute(query, method);
          const StatusOr<core::QueryResult> want =
              clean.Execute(query, method);
          ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
          ASSERT_TRUE(want.ok()) << what << ": " << want.status().ToString();
          ExpectBitIdentical(*got, *want,
                             what + "/" +
                                 core::ExecutionMethodToString(method));
          if (method == core::ExecutionMethod::kAccurateRaster) {
            ExpectBitIdentical(*got, *scan, what + "/accurate=scan");
          }
        }
      }
    }
  };
  check("hot");
  ASSERT_TRUE((*clean_table)->Flush().ok());
  ASSERT_TRUE((*dirty_table)->Flush().ok());
  check("flushed");
}

// The planner's choice over a live table is journaled like a static
// engine's: one `planner.choose` event naming the chosen method.
TEST(LiveEngineTest, ExecuteAutoJournalsPlannerChoice) {
  const std::string dir = FreshDir("journal");
  const data::PointTable base = testing::MakeDyadicPoints(800, 0xC1);
  StatusOr<std::unique_ptr<LiveTable>> table =
      LiveTable::Open(dir, VSchema(), &base, nullptr);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_TRUE((*table)->Append(testing::MakeDyadicPoints(200, 0xC2)).ok());
  const data::RegionSet regions = testing::MakeTessellationRegions(2, 0xC3);
  LiveEngineOptions options;
  options.raster_options = SmallCanvas();
  LiveEngine live(table->get(), &regions, options);

  obs::EventJournal& journal = obs::EventJournal::Global();
  journal.Reset();
  obs::SetJournalEnabled(true);
  core::AggregationQuery query;
  query.aggregate = core::AggregateSpec::Count();
  core::QueryPlan plan;
  const StatusOr<core::QueryResult> result =
      live.ExecuteAuto(query, core::AccuracyRequirement(), nullptr, &plan);
  obs::SetJournalEnabled(false);
  std::vector<obs::Event> events;
  journal.Drain(&events);
  journal.Reset();

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::size_t chosen = 0;
  for (const obs::Event& event : events) {
    if (event.kind == obs::EventKind::kPlannerChoose) {
      ++chosen;
      EXPECT_EQ(event.method, static_cast<std::uint8_t>(plan.method));
    }
  }
  EXPECT_EQ(chosen, 1u);
}

// Satellite regression: an answer over a fully-closed time range must stay
// a cache HIT across appends that only touch newer times; an append that
// overlaps the range must invalidate exactly that entry.
TEST(LiveEngineTest, ClosedTimeRangeStaysCachedAcrossDisjointAppends) {
  const std::string dir = FreshDir("cache_scope");
  StatusOr<std::unique_ptr<LiveTable>> table =
      LiveTable::Open(dir, VSchema(), nullptr, nullptr);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Append(MakeBatchInTime(400, 1, 0, 39999)).ok());

  const data::RegionSet regions = testing::MakeTessellationRegions(3, 2);
  LiveEngineOptions options;
  options.raster_options = SmallCanvas();
  options.cache_entries = 64;
  LiveEngine live(table->get(), &regions, options);

  const auto run_closed_range = [&]() -> core::QueryResult {
    core::AggregationQuery query;
    query.aggregate = core::AggregateSpec::Sum("v");
    query.filter.WithTime(0, 40000);
    StatusOr<core::QueryResult> result =
        live.Execute(query, core::ExecutionMethod::kIndexJoin);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : core::QueryResult();
  };

  const core::QueryResult first = run_closed_range();
  run_closed_range();
  const core::QueryCacheStats warm = live.result_cache_stats();
  EXPECT_GE(warm.hits, 1u) << "second identical query must hit";

  // Appends strictly above the queried range: the entry must survive.
  ASSERT_TRUE((*table)->Append(MakeBatchInTime(200, 2, 50000, 59999)).ok());
  const core::QueryResult after_disjoint = run_closed_range();
  const core::QueryCacheStats disjoint = live.result_cache_stats();
  EXPECT_EQ(disjoint.hits, warm.hits + 1)
      << "append above the closed range must not invalidate it";
  ExpectBitIdentical(after_disjoint, first, "closed range across append");

  // An overlapping append must invalidate it (the answer changed).
  ASSERT_TRUE((*table)->Append(MakeBatchInTime(200, 3, 30000, 34999)).ok());
  run_closed_range();
  const core::QueryCacheStats overlapped = live.result_cache_stats();
  EXPECT_EQ(overlapped.hits, disjoint.hits)
      << "append inside the closed range must invalidate the entry";
  EXPECT_GT(overlapped.misses, disjoint.misses);
}

// Flush re-orders rows (Morton); a cached float SUM over the flushed
// interval may no longer be bit-reproducible, so flush must invalidate.
// The post-flush answer must still be bit-identical to a rebuild.
TEST(LiveEngineTest, FlushInvalidatesButStaysRebuildIdentical) {
  const std::string dir = FreshDir("cache_flush");
  StatusOr<std::unique_ptr<LiveTable>> table =
      LiveTable::Open(dir, VSchema(), nullptr, nullptr);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Append(testing::MakeDyadicPoints(500, 4)).ok());

  const data::RegionSet regions = testing::MakeTessellationRegions(3, 5);
  LiveEngineOptions options;
  options.raster_options = SmallCanvas();
  options.cache_entries = 64;
  LiveEngine live(table->get(), &regions, options);

  core::AggregationQuery query;
  query.aggregate = core::AggregateSpec::Sum("v");
  query.filter.WithTime(0, 86400);
  ASSERT_TRUE(live.Execute(query, core::ExecutionMethod::kScan).ok());

  ASSERT_TRUE((*table)->Flush().ok());
  core::AggregationQuery again;
  again.aggregate = core::AggregateSpec::Sum("v");
  again.filter.WithTime(0, 86400);
  StatusOr<core::QueryResult> live_result =
      live.Execute(again, core::ExecutionMethod::kScan);
  ASSERT_TRUE(live_result.ok());

  const LiveSnapshot snapshot = (*table)->Snapshot();
  const data::PointTable rebuilt_rows = ConcatSnapshot(snapshot);
  core::SpatialAggregation rebuilt(rebuilt_rows, regions, SmallCanvas());
  core::AggregationQuery rebuilt_query;
  rebuilt_query.aggregate = core::AggregateSpec::Sum("v");
  rebuilt_query.filter.WithTime(0, 86400);
  StatusOr<core::QueryResult> rebuilt_result =
      rebuilt.Execute(rebuilt_query, core::ExecutionMethod::kScan);
  ASSERT_TRUE(rebuilt_result.ok());
  ExpectBitIdentical(*live_result, *rebuilt_result, "post-flush sum");
}

// Thread-safety smoke (the TSan gate runs this suite): queries race with
// appends and a flush; every answer must come from a consistent snapshot,
// so COUNT over the full tessellation must never exceed the watermark the
// engine reports for that answer.
TEST(LiveEngineTest, ConcurrentAppendsAndQueriesStaySane) {
  const std::string dir = FreshDir("concurrent");
  IngestOptions ingest_options;
  ingest_options.memtable_rows = 2048;
  StatusOr<std::unique_ptr<LiveTable>> table =
      LiveTable::Open(dir, VSchema(), nullptr, nullptr, ingest_options);
  ASSERT_TRUE(table.ok());
  const data::RegionSet regions = testing::MakeTessellationRegions(2, 10);
  LiveEngineOptions options;
  options.raster_options = SmallCanvas();
  LiveEngine live(table->get(), &regions, options);

  std::thread writer([&] {
    for (int b = 0; b < 20; ++b) {
      StatusOr<std::uint64_t> watermark =
          (*table)->Append(testing::MakeDyadicPoints(100, 100 + b));
      ASSERT_TRUE(watermark.ok()) << watermark.status().ToString();
      if (b == 10) {
        ASSERT_TRUE((*table)->Flush().ok());
      }
    }
  });

  std::uint64_t last_watermark = 0;
  for (int i = 0; i < 30; ++i) {
    core::AggregationQuery query;
    query.aggregate = core::AggregateSpec::Count();
    std::uint64_t watermark = 0;
    StatusOr<core::QueryResult> result =
        live.Execute(query, core::ExecutionMethod::kScan, &watermark);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GE(watermark, last_watermark) << "watermark must be monotonic";
    last_watermark = watermark;
    std::uint64_t total = 0;
    for (std::uint64_t count : result->counts) total += count;
    EXPECT_LE(total, watermark);
  }
  writer.join();
  EXPECT_EQ((*table)->watermark(), 2000u);
}

// A live profile describes the whole composed run, not its last component:
// a query over a store base, one flushed run and hot rows scans exactly the
// rows the stop-the-world engine scans, and a repeated closed-range query
// reports the live engine's own cache hit.
TEST(LiveEngineTest, ProfileSumsComponentsAndReportsCacheHits) {
  const std::string dir = FreshDir("profile");
  const data::RegionSet regions = testing::MakeTessellationRegions(3, 0x9F);
  const std::string store_path = dir + ".base.ust1";
  std::filesystem::remove(store_path);
  store::StoreWriterOptions store_options;
  store_options.block_rows = 256;
  StatusOr<store::StoreWriter> writer =
      store::StoreWriter::Create(store_path, VSchema(), store_options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer->Append(testing::MakeDyadicPoints(1200, 0x9A)).ok());
  ASSERT_TRUE(writer->Finish().ok());
  StatusOr<store::StoreReader> reader = store::StoreReader::Open(store_path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  StatusOr<data::PointTable> base = reader->MappedTable();
  ASSERT_TRUE(base.ok());

  StatusOr<std::unique_ptr<LiveTable>> table = LiveTable::Open(
      dir, VSchema(), &*base, &reader->zone_maps());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_TRUE((*table)->Append(testing::MakeDyadicPoints(500, 0x9B)).ok());
  ASSERT_TRUE((*table)->Flush().ok());
  ASSERT_TRUE((*table)->Append(testing::MakeDyadicPoints(300, 0x9C)).ok());
  const LiveSnapshot snapshot = (*table)->Snapshot();
  ASSERT_EQ(snapshot.runs.size(), 1u);
  ASSERT_GT(snapshot.hot.size(), 0u);

  LiveEngineOptions options;
  options.raster_options = SmallCanvas();
  options.cache_entries = 64;
  LiveEngine live(table->get(), &regions, options);
  const data::PointTable rebuilt_rows = ConcatSnapshot(snapshot);
  core::SpatialAggregation rebuilt(rebuilt_rows, regions, SmallCanvas());
  const std::pair<core::AggregateSpec, core::ExecutionMethod> cases[] = {
      {core::AggregateSpec::Count(), core::ExecutionMethod::kAccurateRaster},
      {core::AggregateSpec::Avg("v"), core::ExecutionMethod::kBoundedRaster}};
  for (const auto& [aggregate, method] : cases) {
    const std::string what = core::ExecutionMethodToString(method);
    obs::QueryProfile live_profile;
    core::AggregationQuery query;
    query.aggregate = aggregate;
    query.profile = &live_profile;
    ASSERT_TRUE(live.Execute(query, method).ok()) << what;
    obs::QueryProfile rebuilt_profile;
    query.profile = &rebuilt_profile;
    ASSERT_TRUE(rebuilt.Execute(query, method).ok()) << what;

    EXPECT_EQ(live_profile.method, what);
    EXPECT_EQ(live_profile.cache, "miss") << what;
    EXPECT_EQ(live_profile.totals.points_scanned,
              rebuilt_profile.totals.points_scanned)
        << what;
    EXPECT_EQ(live_profile.totals.points_scanned, snapshot.watermark) << what;
    EXPECT_GE(live_profile.wall_seconds, live_profile.totals.query_seconds)
        << what;
  }

  const auto closed_range = [&](obs::QueryProfile* profile) {
    core::AggregationQuery closed;
    closed.aggregate = core::AggregateSpec::Sum("v");
    closed.filter.WithTime(0, 40000);
    closed.profile = profile;
    return live.Execute(closed, core::ExecutionMethod::kScan).ok();
  };
  obs::QueryProfile first;
  ASSERT_TRUE(closed_range(&first));
  EXPECT_EQ(first.cache, "miss");
  obs::QueryProfile second;
  ASSERT_TRUE(closed_range(&second));
  EXPECT_EQ(second.cache, "hit");
  EXPECT_EQ(second.method, "scan");
}

// A live query is observed once, by the live engine — never once per
// component: over a base, one flushed run and hot rows, each query adds
// exactly one `query.wall_seconds` sample and one `exec.<method>.queries`
// execution, and an armed recorder commits exactly one record, naming the
// query as asked (AVG, not a per-component rewrite) with every component's
// rows scanned in its profile. At four shards a scan or index query is one
// sharded pass over the components' concatenated rows: four shard rows in
// its profile and one `shard.queries`.
TEST(LiveEngineTest, ObservedOncePerQuery) {
  const std::string dir = FreshDir("observed_once");
  const data::RegionSet regions = testing::MakeTessellationRegions(3, 0xA1);
  const data::PointTable base = testing::MakeDyadicPoints(1200, 0xA2);
  StatusOr<std::unique_ptr<LiveTable>> table =
      LiveTable::Open(dir, VSchema(), &base, nullptr);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_TRUE((*table)->Append(testing::MakeDyadicPoints(500, 0xA3)).ok());
  ASSERT_TRUE((*table)->Flush().ok());
  ASSERT_TRUE((*table)->Append(testing::MakeDyadicPoints(300, 0xA4)).ok());
  const LiveSnapshot snapshot = (*table)->Snapshot();
  ASSERT_EQ(snapshot.runs.size(), 1u);
  ASSERT_GT(snapshot.hot.size(), 0u);

  LiveEngineOptions options;
  options.raster_options = SmallCanvas();
  LiveEngine live(table->get(), &regions, options);

  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const auto samples = [&registry] {
    return registry.SnapshotHistogram("query.wall_seconds").count;
  };
  const std::pair<core::AggregateSpec, core::ExecutionMethod> cases[] = {
      {core::AggregateSpec::Count(), core::ExecutionMethod::kScan},
      {core::AggregateSpec::Sum("v"), core::ExecutionMethod::kIndexJoin},
      {core::AggregateSpec::Avg("v"), core::ExecutionMethod::kBoundedRaster}};
  for (const auto& [aggregate, method] : cases) {
    core::AggregationQuery query;
    query.aggregate = aggregate;
    const std::string what =
        std::string(core::ExecutionMethodToString(method)) + " " +
        query.ToString();
    obs::Counter& executions = registry.GetCounter(
        std::string("exec.") + core::ExecutionMethodToString(method) +
        ".queries");
    const std::uint64_t before = samples();
    const std::uint64_t executed = executions.Value();
    const StatusOr<core::QueryResult> result = live.Execute(query, method);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(samples() - before, 1u) << what;
    EXPECT_EQ(executions.Value() - executed, 1u) << what;
  }

  LiveEngineOptions sharded_options = options;
  sharded_options.num_shards = 4;
  LiveEngine sharded(table->get(), &regions, sharded_options);
  for (const core::ExecutionMethod method :
       {core::ExecutionMethod::kScan, core::ExecutionMethod::kIndexJoin}) {
    obs::QueryProfile profile;
    core::AggregationQuery query;
    query.aggregate = core::AggregateSpec::Count();
    query.profile = &profile;
    const std::uint64_t shard_queries =
        registry.GetCounter("shard.queries").Value();
    const StatusOr<core::QueryResult> result = sharded.Execute(query, method);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(profile.shards.size(), 4u)
        << core::ExecutionMethodToString(method);
    EXPECT_EQ(registry.GetCounter("shard.queries").Value() - shard_queries, 1u)
        << core::ExecutionMethodToString(method);
  }
  obs::SetMetricsEnabled(metrics_were_enabled);

  obs::SlowQueryLog& recorder = obs::SlowQueryLog::Global();
  const obs::SlowQueryLogOptions recorder_options = recorder.options();
  const bool recorder_was_armed = recorder.armed();
  obs::SlowQueryLogOptions capture_all;
  capture_all.threshold_seconds = 0.0;
  recorder.SetOptions(capture_all);
  recorder.Clear();
  recorder.Arm();
  core::AggregationQuery avg;
  avg.aggregate = core::AggregateSpec::Avg("v");
  std::uint64_t watermark = 0;
  const StatusOr<core::QueryResult> result =
      live.Execute(avg, core::ExecutionMethod::kAccurateRaster, &watermark);
  const std::vector<obs::SlowQueryRecord> records = recorder.Records();
  if (!recorder_was_armed) recorder.Disarm();
  recorder.SetOptions(recorder_options);
  recorder.Clear();

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_NE(records[0].query.find("AVG(v)"), std::string::npos)
      << records[0].query;
  ASSERT_TRUE(records[0].profile.is_object());
  EXPECT_EQ(records[0]
                .profile.Find("executor")
                ->Find("totals")
                ->Find("points_scanned")
                ->AsNumber(),
            static_cast<double>(watermark));
  EXPECT_EQ(watermark, snapshot.watermark);
}

// Shards and live components run the query's own aggregate, so the
// bounded raster's options reach them unchanged: on non-dyadic floats, a
// one-shard ShardedExecutor and a one-component LiveEngine are
// bit-identical to the unsharded executor for every aggregate.
TEST(LiveEngineTest, BoundedRasterMatchesUnshardedWhenShardedAndLive) {
  const data::PointTable points = testing::MakeUniformPoints(20000, 42);
  const data::RegionSet regions = testing::MakeRandomRegions(4, 43);
  core::RasterJoinOptions raster;
  raster.resolution = 192;
  auto unsharded = core::BoundedRasterJoin::Create(points, regions, raster);
  ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
  shard::ShardedExecutorOptions shard_options;
  shard_options.num_shards = 1;
  auto sharded = shard::ShardedExecutor::Create(
      points, regions, core::ExecutionMethod::kBoundedRaster, shard_options,
      raster);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const std::string dir = FreshDir("bounded_raster");
  StatusOr<std::unique_ptr<LiveTable>> table =
      LiveTable::Open(dir, points.schema(), &points, nullptr);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  LiveEngineOptions live_options;
  live_options.raster_options = raster;
  LiveEngine live(table->get(), &regions, live_options);

  for (const core::AggregateSpec& aggregate : AllAggregates()) {
    core::AggregationQuery query;
    query.points = &points;
    query.regions = &regions;
    query.aggregate = aggregate;
    const std::string what = core::AggregateKindToString(aggregate.kind);
    const StatusOr<core::QueryResult> want = (*unsharded)->Execute(query);
    const StatusOr<core::QueryResult> from_shards = (*sharded)->Execute(query);
    core::AggregationQuery live_query;
    live_query.aggregate = aggregate;
    const StatusOr<core::QueryResult> from_live =
        live.Execute(live_query, core::ExecutionMethod::kBoundedRaster);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(from_shards.ok()) << from_shards.status().ToString();
    ASSERT_TRUE(from_live.ok()) << from_live.status().ToString();
    ExpectBitIdentical(*from_shards, *want, "sharded " + what);
    ExpectBitIdentical(*from_live, *want, "live " + what);
  }
}

}  // namespace
}  // namespace urbane::ingest
