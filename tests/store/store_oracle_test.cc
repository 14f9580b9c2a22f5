// Store-vs-in-memory oracle: every executor x aggregate must produce
// BIT-IDENTICAL results when the points come from a store (the mmap view,
// or the owning copy the reader falls back to when it cannot map the file,
// each with zone-map pruning attached) instead of an owning in-memory
// table — unsharded and at 4 shards. This is the contract that makes the
// out-of-core path a drop-in substitute: not "close", equal.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/spatial_aggregation.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "store/store_reader.h"
#include "store/store_writer.h"
#include "testing/test_worlds.h"
#include "util/random.h"

namespace urbane::store {
namespace {

struct Oracle {
  std::string path;
  data::RegionSet regions;
  std::unique_ptr<StoreReader> reader;
  data::PointTable view;        // mmap-backed
  data::PointTable materialized;  // owning row-by-row copy, same row order

  ~Oracle() { std::remove(path.c_str()); }
};

std::unique_ptr<Oracle> MakeOracle(const char* name) {
  auto oracle = std::make_unique<Oracle>();
  oracle->path = ::testing::TempDir() + "/" + name;
  oracle->regions = testing::MakeRandomRegions(10, 0xFEED);
  const data::PointTable table = testing::MakeUniformPoints(20000, 0xBEEF);
  StoreWriterOptions options;
  options.block_rows = 1024;
  EXPECT_TRUE(WritePointStore(table, oracle->path, options).ok());
  auto reader = StoreReader::Open(oracle->path);
  EXPECT_TRUE(reader.ok());
  oracle->reader = std::make_unique<StoreReader>(std::move(*reader));
  auto view = oracle->reader->MappedTable();
  EXPECT_TRUE(view.ok());
  oracle->view = std::move(*view);
  oracle->materialized = testing::CopyRows(oracle->view);
  return oracle;
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

// "Bit-identical" is literal: compare the byte patterns, so two NaNs (AVG
// over an empty region) compare equal while +0.0 vs -0.0 would not.
std::uint64_t DoubleBits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectBitIdentical(const core::QueryResult& store_result,
                        const core::QueryResult& memory_result,
                        const char* what) {
  ASSERT_EQ(store_result.values.size(), memory_result.values.size()) << what;
  for (std::size_t r = 0; r < store_result.values.size(); ++r) {
    EXPECT_EQ(DoubleBits(store_result.values[r]),
              DoubleBits(memory_result.values[r]))
        << what << " region " << r << ": " << store_result.values[r] << " vs "
        << memory_result.values[r];
    EXPECT_EQ(store_result.counts[r], memory_result.counts[r])
        << what << " region " << r;
  }
}

TEST(StoreOracleTest, EveryMethodAndAggregateBitIdenticalFromDiskBlocks) {
  auto oracle = MakeOracle("oracle_methods.ust");
  const core::ExecutionMethod methods[] = {
      core::ExecutionMethod::kScan, core::ExecutionMethod::kIndexJoin,
      core::ExecutionMethod::kBoundedRaster,
      core::ExecutionMethod::kAccurateRaster};
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    // The store-backed engine queries the mmap view with zone maps
    // attached; the oracle engine queries an owning copy of the same rows.
    core::SpatialAggregation store_engine(oracle->view, oracle->regions);
    store_engine.AttachZoneMaps(&oracle->reader->zone_maps());
    store_engine.set_num_shards(shards);
    core::SpatialAggregation memory_engine(oracle->materialized,
                                           oracle->regions);
    if (shards > 1) {
      // Zone maps make the shard plan block-aligned, and float SUM/AVG
      // depend on the plan: the copy's rows are in store order, so the
      // reader's zone maps describe it too and give both engines one plan.
      // The unsharded round keeps the unpruned in-memory engine.
      memory_engine.AttachZoneMaps(&oracle->reader->zone_maps());
    }
    memory_engine.set_num_shards(shards);
    for (const core::ExecutionMethod method : methods) {
      for (const core::AggregateSpec& aggregate : AllAggregates()) {
        for (const core::FilterSpec& filter : OracleFilters()) {
          core::AggregationQuery query;
          query.aggregate = aggregate;
          query.filter = filter;
          auto from_store = store_engine.Execute(query, method);
          auto from_memory = memory_engine.Execute(query, method);
          ASSERT_TRUE(from_store.ok()) << from_store.status().ToString();
          ASSERT_TRUE(from_memory.ok()) << from_memory.status().ToString();
          const std::string what =
              std::string(core::ExecutionMethodToString(method)) + "/" +
              core::AggregateKindToString(aggregate.kind) + "/m" +
              std::to_string(shards);
          ExpectBitIdentical(*from_store, *from_memory, what.c_str());
        }
      }
    }
  }
}

TEST(StoreOracleTest, SelectiveFiltersActuallyPruneBlocks) {
  auto oracle = MakeOracle("oracle_prune.ust");
  const auto filters = OracleFilters();
  // The trivial filter prunes nothing; the selective ones must prune.
  const core::PruneResult trivial = oracle->reader->zone_maps().Prune(
      filters[0], oracle->reader->schema());
  EXPECT_EQ(trivial.blocks_pruned, 0u);
  for (std::size_t f = 1; f < filters.size(); ++f) {
    const core::PruneResult prune = oracle->reader->zone_maps().Prune(
        filters[f], oracle->reader->schema());
    EXPECT_GT(prune.blocks_pruned, 0u) << "filter " << f;
    EXPECT_LT(prune.candidates.total_rows(), oracle->reader->row_count())
        << "filter " << f;
  }
}

TEST(StoreOracleTest, PreadFallbackScanMatchesSerialInMemoryScan) {
  auto oracle = MakeOracle("oracle_pread.ust");
  // Re-open without the map: the copy a failed mmap falls back to must
  // serve the same bits, and its engine must prune the same blocks.
  StoreReaderOptions read_options;
  read_options.use_mmap = false;
  auto reader = StoreReader::Open(oracle->path, read_options);
  ASSERT_TRUE(reader.ok());
  auto copy = reader->Materialize();
  ASSERT_TRUE(copy.ok());
  core::SpatialAggregation store_engine(*copy, oracle->regions);
  store_engine.AttachZoneMaps(&reader->zone_maps());
  core::SpatialAggregation memory_engine(oracle->materialized,
                                         oracle->regions);
  for (const core::AggregateSpec& aggregate : AllAggregates()) {
    for (const core::FilterSpec& filter : OracleFilters()) {
      obs::QueryProfile profile;
      core::AggregationQuery query;
      query.aggregate = aggregate;
      query.filter = filter;
      query.profile = &profile;
      auto from_store =
          store_engine.Execute(query, core::ExecutionMethod::kScan);
      query.profile = nullptr;
      auto from_memory =
          memory_engine.Execute(query, core::ExecutionMethod::kScan);
      ASSERT_TRUE(from_store.ok()) << from_store.status().ToString();
      ASSERT_TRUE(from_memory.ok()) << from_memory.status().ToString();
      ExpectBitIdentical(*from_store, *from_memory, "pread_fallback");
      if (!filter.IsTrivial()) {
        EXPECT_GT(profile.blocks_pruned, 0u);
        EXPECT_LT(profile.blocks_pruned, profile.blocks_total);
      }
    }
  }
}

// A bounded-raster query over a store-backed engine counts its zone-map
// pruning into the metrics exactly as it reports it in the profile: rows as
// well as blocks.
TEST(StoreOracleTest, BoundedRasterCountsRowsPruned) {
  // Time rises with x, so the Morton-clustered blocks span narrow time
  // ranges and a time filter prunes whole blocks.
  data::PointTable table(data::Schema(std::vector<std::string>{"v"}));
  Rng rng(0x9A11);
  std::vector<float>& v = table.mutable_attribute_column(0);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.NextDouble(0.0, 100.0);
    table.AppendXyt(static_cast<float>(x),
                    static_cast<float>(rng.NextDouble(0.0, 100.0)),
                    static_cast<std::int64_t>(x * 864.0));
    v.push_back(static_cast<float>(rng.NextDouble(-10.0, 10.0)));
  }
  const std::string path = ::testing::TempDir() + "/oracle_raster_prune.ust";
  StoreWriterOptions write_options;
  write_options.block_rows = 1024;
  ASSERT_TRUE(WritePointStore(table, path, write_options).ok());
  auto reader = StoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto view = reader->MappedTable();
  ASSERT_TRUE(view.ok());
  const data::RegionSet regions = testing::MakeRandomRegions(6, 0x9A12);
  core::SpatialAggregation engine(*view, regions);
  engine.AttachZoneMaps(&reader->zone_maps());

  core::AggregationQuery query;
  query.aggregate = core::AggregateSpec::Sum("v");
  query.filter.time_range = core::TimeRange{0, 20000};
  obs::QueryProfile profile;
  query.profile = &profile;

  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::Counter& rows_pruned =
      obs::MetricsRegistry::Global().GetCounter("store.rows_pruned");
  const std::uint64_t before = rows_pruned.Value();
  const auto result =
      engine.Execute(query, core::ExecutionMethod::kBoundedRaster);
  const std::uint64_t counted = rows_pruned.Value() - before;
  obs::SetMetricsEnabled(metrics_were_enabled);
  std::remove(path.c_str());

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(profile.method, "raster");
  EXPECT_GT(profile.blocks_pruned, 0u);
  EXPECT_GT(profile.rows_pruned, 0u);
  EXPECT_EQ(counted, profile.rows_pruned);
}

// NaN rows fail an attribute range in memory exactly as the zone maps
// assume when they prune them from a store: both answer the non-NaN half.
TEST(StoreOracleTest, NanRowsFailAttributeRangeInMemoryAndFromStore) {
  data::PointTable table = testing::MakeUniformPoints(4096, 0x7A7A);
  std::vector<float>& v = table.mutable_attribute_column(0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = i < v.size() / 2 ? 5.0f : std::numeric_limits<float>::quiet_NaN();
  }
  const std::string path = ::testing::TempDir() + "/oracle_nan.ust";
  // Blocks sort only within themselves, so the NaN half fills whole
  // blocks, whose inverted attribute extents prune them.
  StoreWriterOptions write_options;
  write_options.block_rows = 512;
  write_options.sort_batch_rows = 512;
  ASSERT_TRUE(WritePointStore(table, path, write_options).ok());
  auto reader = StoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto view = reader->MappedTable();
  ASSERT_TRUE(view.ok());
  const data::RegionSet regions = testing::MakeTessellationRegions(2, 0x7A7B);
  core::SpatialAggregation store_engine(*view, regions);
  store_engine.AttachZoneMaps(&reader->zone_maps());
  core::SpatialAggregation memory_engine(table, regions);

  core::AggregationQuery query;
  query.aggregate = core::AggregateSpec::Count();
  query.filter.WithRange("v", 0.0, 10.0);
  for (const core::ExecutionMethod method :
       {core::ExecutionMethod::kScan, core::ExecutionMethod::kAccurateRaster}) {
    const std::string what = core::ExecutionMethodToString(method);
    const auto from_store = store_engine.Execute(query, method);
    const auto from_memory = memory_engine.Execute(query, method);
    ASSERT_TRUE(from_store.ok()) << from_store.status().ToString();
    ASSERT_TRUE(from_memory.ok()) << from_memory.status().ToString();
    std::uint64_t store_total = 0;
    std::uint64_t memory_total = 0;
    for (const std::uint64_t count : from_store->counts) store_total += count;
    for (const std::uint64_t count : from_memory->counts) memory_total += count;
    EXPECT_EQ(memory_total, 2048u) << what;
    EXPECT_EQ(store_total, 2048u) << what;
  }
  obs::QueryProfile profile;
  query.profile = &profile;
  ASSERT_TRUE(store_engine.Execute(query, core::ExecutionMethod::kScan).ok());
  EXPECT_EQ(profile.blocks_pruned, 4u);
  std::remove(path.c_str());
}

TEST(StoreOracleTest, ViewBoundsDriveIdenticalCanvases) {
  // Raster executors derive their canvas from Bounds(); the view's cached
  // (zone-map) extents must therefore be bit-exact with the scan, or the
  // raster results above could never match. Check it explicitly so a
  // regression fails here with a readable message.
  auto oracle = MakeOracle("oracle_bounds.ust");
  const geometry::BoundingBox view_bounds = oracle->view.Bounds();
  const geometry::BoundingBox owned_bounds = oracle->materialized.Bounds();
  EXPECT_EQ(view_bounds.min_x, owned_bounds.min_x);
  EXPECT_EQ(view_bounds.min_y, owned_bounds.min_y);
  EXPECT_EQ(view_bounds.max_x, owned_bounds.max_x);
  EXPECT_EQ(view_bounds.max_y, owned_bounds.max_y);
  EXPECT_EQ(oracle->view.TimeRange(), oracle->materialized.TimeRange());
}

}  // namespace
}  // namespace urbane::store
