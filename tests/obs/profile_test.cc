// The query-profile contract (DESIGN.md §12), bottom up: the W3C
// traceparent parser must accept exactly the version-00 shape and reject
// the malformed corpus WITHOUT touching the output (callers fall back to a
// generated context and still serve the request); the urbane.profile.v1
// document must be bit-stable across runs at a fixed shard count once the
// measured *_seconds fields are canonicalized away; a
// sharded profile's per-shard counters must sum exactly to the executor
// totals; and a query over a memory-mapped store must report its zone-map
// pruning in a profile that is just as bit-stable.
#include "obs/profile.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/spatial_aggregation.h"
#include "data/json.h"
#include "obs/obs.h"
#include "store/store_reader.h"
#include "store/store_writer.h"
#include "testing/test_worlds.h"

namespace urbane::obs {
namespace {

constexpr char kValidTraceparent[] =
    "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";

TEST(TraceparentTest, ParsesCanonicalHeader) {
  TraceContext context;
  ASSERT_TRUE(ParseTraceparent(kValidTraceparent, &context));
  EXPECT_EQ(context.trace_hi, 0x0af7651916cd43ddULL);
  EXPECT_EQ(context.trace_lo, 0x8448eb211c80319cULL);
  EXPECT_EQ(context.parent_id, 0xb7ad6b7169203331ULL);
  EXPECT_EQ(context.flags, 0x01);
  EXPECT_TRUE(context.valid());
  EXPECT_EQ(context.TraceIdHex(), "0af7651916cd43dd8448eb211c80319c");
  EXPECT_EQ(context.ToTraceparent(), kValidTraceparent);
}

TEST(TraceparentTest, AcceptsUppercaseHexButEmitsLowercase) {
  TraceContext context;
  ASSERT_TRUE(ParseTraceparent(
      "00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01", &context));
  EXPECT_EQ(context.ToTraceparent(), kValidTraceparent);
}

TEST(TraceparentTest, MalformedCorpusIsRejectedAndOutputUntouched) {
  // Every entry is one mutation of the valid header; the parser must
  // reject all of them per the W3C spec and leave *out exactly as found.
  const std::vector<std::string> corpus = {
      "",
      "00",
      // Wrong overall length (54 and 56 bytes).
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333-01",
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b71692033311-01",
      // Dashes in the wrong positions.
      "000-af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
      "00-0af7651916cd43dd8448eb211c80319cb-7ad6b7169203331-01",
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331001",
      // Forbidden version ff and a non-hex version.
      "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
      "zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
      // Non-hex characters inside the ids and flags.
      "00-0af7651916cd43dd8448eb211c8031gg-b7ad6b7169203331-01",
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b71692033zz-01",
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0x",
      // All-zero trace id and all-zero parent id are invalid per spec.
      "00-00000000000000000000000000000000-b7ad6b7169203331-01",
      "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
  };
  for (const std::string& header : corpus) {
    TraceContext context;
    context.trace_hi = 0x1111;
    context.trace_lo = 0x2222;
    context.parent_id = 0x3333;
    context.flags = 0x7f;
    EXPECT_FALSE(ParseTraceparent(header, &context)) << header;
    EXPECT_EQ(context.trace_hi, 0x1111u) << header;
    EXPECT_EQ(context.trace_lo, 0x2222u) << header;
    EXPECT_EQ(context.parent_id, 0x3333u) << header;
    EXPECT_EQ(context.flags, 0x7f) << header;
  }
}

TEST(TraceparentTest, GeneratedContextsAreValidAndDistinct) {
  const TraceContext a = GenerateTraceContext();
  const TraceContext b = GenerateTraceContext();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a.TraceIdHex(), b.TraceIdHex());
  // Generated headers must round-trip through our own parser.
  TraceContext parsed;
  ASSERT_TRUE(ParseTraceparent(a.ToTraceparent(), &parsed));
  EXPECT_EQ(parsed.TraceIdHex(), a.TraceIdHex());
}

TEST(ProfileStoreTest, InsertLookupAndCapacityEviction) {
  ProfileStore store(/*capacity=*/2);
  QueryProfile first;
  first.context = GenerateTraceContext();
  first.method = "scan";
  QueryProfile second;
  second.context = GenerateTraceContext();
  second.method = "raster_accurate";
  store.Insert(first);
  store.Insert(second);
  EXPECT_EQ(store.size(), 2u);

  data::JsonValue doc;
  ASSERT_TRUE(store.Lookup(first.context.TraceIdHex(), &doc));
  EXPECT_EQ(doc.Find("method")->AsString(), "scan");

  // A third insert evicts the oldest (first) profile.
  QueryProfile third;
  third.context = GenerateTraceContext();
  store.Insert(third);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.Lookup(first.context.TraceIdHex(), &doc));
  EXPECT_TRUE(store.Lookup(second.context.TraceIdHex(), &doc));
  EXPECT_TRUE(store.Lookup(third.context.TraceIdHex(), &doc));
}

TEST(ProfileStoreTest, ReinsertRefreshesEvictionPosition) {
  ProfileStore store(/*capacity=*/2);
  QueryProfile a;
  a.context = GenerateTraceContext();
  QueryProfile b;
  b.context = GenerateTraceContext();
  QueryProfile c;
  c.context = GenerateTraceContext();
  store.Insert(a);
  store.Insert(b);
  store.Insert(a);  // refresh: b is now the oldest
  store.Insert(c);
  data::JsonValue doc;
  EXPECT_TRUE(store.Lookup(a.context.TraceIdHex(), &doc));
  EXPECT_FALSE(store.Lookup(b.context.TraceIdHex(), &doc));
  EXPECT_TRUE(store.Lookup(c.context.TraceIdHex(), &doc));
}

TEST(ProfileStoreTest, RecentListsNewestFirst) {
  ProfileStore store(/*capacity=*/8);
  std::vector<std::string> ids;
  for (int i = 0; i < 3; ++i) {
    QueryProfile profile;
    profile.context = GenerateTraceContext();
    profile.method = "scan";
    store.Insert(profile);
    ids.push_back(profile.context.TraceIdHex());
  }
  const data::JsonValue doc = store.Recent(2);
  EXPECT_EQ(doc.Find("schema")->AsString(), "urbane.profiles.v1");
  const auto& rows = doc.Find("profiles")->AsArray();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].Find("trace_id")->AsString(), ids[2]);
  EXPECT_EQ(rows[1].Find("trace_id")->AsString(), ids[1]);
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
}

// ---------------------------------------------------------------------------
// urbane.profile.v1 document shape and determinism.

core::AggregationQuery SumQuery(QueryProfile* profile) {
  core::AggregationQuery query;
  query.aggregate = core::AggregateSpec::Sum("v");
  query.profile = profile;
  return query;
}

/// Runs the query with a FIXED trace context and returns the canonicalized
/// document: trace identity and counters stay, measured seconds go to
/// zero. Two equal dumps mean the whole deterministic skeleton matched.
std::string CanonicalRun(core::SpatialAggregation& engine,
                         core::ExecutionMethod method) {
  QueryProfile profile;
  TraceContext fixed;
  ParseTraceparent(kValidTraceparent, &fixed);
  profile.context = fixed;
  auto result = engine.Execute(SumQuery(&profile), method);
  EXPECT_TRUE(result.ok());
  data::JsonValue doc = profile.ToJson();
  CanonicalizeProfileJson(&doc);
  return doc.Dump(2);
}

TEST(ProfileDocumentTest, TopLevelKeyOrderIsStable) {
  const auto points = testing::MakeDyadicPoints(2000, 0xFACE);
  const auto regions = testing::MakeTessellationRegions(3, 9);
  core::SpatialAggregation engine(points, regions);
  QueryProfile profile;
  profile.context = GenerateTraceContext();
  ASSERT_TRUE(
      engine.Execute(SumQuery(&profile), core::ExecutionMethod::kScan).ok());
  const data::JsonValue doc = profile.ToJson();
  ASSERT_TRUE(doc.is_object());
  const std::vector<std::string> expected = {
      "schema",  "trace_id", "traceparent", "method",  "cache",
      "planner", "request",  "store",       "executor", "sharding"};
  ASSERT_EQ(doc.AsObject().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(doc.AsObject()[i].first, expected[i]) << "slot " << i;
  }
  EXPECT_EQ(doc.Find("schema")->AsString(), "urbane.profile.v1");
  EXPECT_EQ(doc.Find("method")->AsString(), "scan");
  EXPECT_GT(doc.Find("executor")->Find("totals")
                ->Find("points_scanned")->AsNumber(), 0.0);
}

TEST(ProfileDocumentTest, SectionKeyOrderIsStable) {
  const data::JsonValue doc = QueryProfile().ToJson();
  const auto keys = [](const data::JsonValue* section) {
    std::vector<std::string> names;
    for (const auto& [key, value] : section->AsObject()) names.push_back(key);
    return names;
  };
  EXPECT_EQ(keys(doc.Find("request")),
            (std::vector<std::string>{"queue_wait_seconds", "wall_seconds",
                                      "cpu_seconds", "prepare_seconds"}));
  EXPECT_EQ(keys(doc.Find("executor")->Find("totals")),
            (std::vector<std::string>{
                "points_scanned", "points_bulk", "pip_tests", "refine_rows",
                "pixels_touched", "boundary_pixels", "tiles_visited",
                "simd_fragments", "filter_seconds", "splat_seconds",
                "sweep_seconds", "reduce_seconds", "refine_seconds",
                "query_seconds"}));
}

TEST(ProfileDocumentTest, CanonicalizeZeroesOnlyMeasuredFields) {
  QueryProfile profile;
  profile.context = GenerateTraceContext();
  profile.wall_seconds = 1.5;
  profile.queue_wait_seconds = 0.25;
  profile.prepare_seconds = 0.75;
  profile.totals.points_scanned = 42;
  profile.totals.refine_rows = 17;
  profile.totals.query_seconds = 9.0;
  data::JsonValue doc = profile.ToJson();
  CanonicalizeProfileJson(&doc);
  EXPECT_EQ(doc.Find("request")->Find("wall_seconds")->AsNumber(), 0.0);
  EXPECT_EQ(doc.Find("request")->Find("queue_wait_seconds")->AsNumber(), 0.0);
  EXPECT_EQ(doc.Find("request")->Find("prepare_seconds")->AsNumber(), 0.0);
  EXPECT_EQ(doc.Find("executor")->Find("totals")
                ->Find("query_seconds")->AsNumber(), 0.0);
  EXPECT_EQ(doc.Find("executor")->Find("totals")
                ->Find("points_scanned")->AsNumber(), 42.0);
  EXPECT_EQ(doc.Find("executor")->Find("totals")
                ->Find("refine_rows")->AsNumber(), 17.0);
  EXPECT_EQ(doc.Find("trace_id")->AsString(), profile.context.TraceIdHex());
}

TEST(ProfileGoldenTest, SerialProfileIsBitStableAcrossRuns) {
  const auto points = testing::MakeDyadicPoints(4000, 0xBEEF);
  const auto regions = testing::MakeTessellationRegions(3, 11);
  core::SpatialAggregation engine(points, regions);
  const std::string first = CanonicalRun(engine, core::ExecutionMethod::kScan);
  const std::string second = CanonicalRun(engine, core::ExecutionMethod::kScan);
  EXPECT_EQ(first, second);
}

TEST(ProfileGoldenTest, ShardedProfileIsBitStableAndSumsToTotals) {
  const auto points = testing::MakeDyadicPoints(20000, 0xD00D);
  const auto regions = testing::MakeTessellationRegions(3, 17);
  core::SpatialAggregation engine(points, regions);
  engine.set_num_shards(4);

  const std::string first = CanonicalRun(engine, core::ExecutionMethod::kScan);
  const std::string second = CanonicalRun(engine, core::ExecutionMethod::kScan);
  EXPECT_EQ(first, second);

  QueryProfile profile;
  profile.context = GenerateTraceContext();
  ASSERT_TRUE(
      engine.Execute(SumQuery(&profile), core::ExecutionMethod::kScan).ok());
  ASSERT_EQ(profile.shards.size(), 4u);

  // The breakdown is in shard-index order and tiles the row space.
  std::uint64_t rows_covered = 0;
  std::uint64_t points_scanned = 0;
  std::uint64_t pip_tests = 0;
  std::uint64_t candidate_rows = 0;
  for (std::size_t s = 0; s < profile.shards.size(); ++s) {
    const ShardProfileEntry& shard = profile.shards[s];
    EXPECT_EQ(shard.index, s);
    EXPECT_EQ(shard.rows_begin, rows_covered);
    EXPECT_LE(shard.rows_begin, shard.rows_end);
    rows_covered = shard.rows_end;
    candidate_rows += shard.candidate_rows;
    points_scanned += shard.costs.points_scanned;
    pip_tests += shard.costs.pip_tests;
  }
  EXPECT_EQ(rows_covered, points.size());
  EXPECT_EQ(candidate_rows, points.size());  // no pruning: full shards
  // Per-shard pass costs sum exactly to the merged executor totals.
  EXPECT_EQ(points_scanned, profile.totals.points_scanned);
  EXPECT_EQ(pip_tests, profile.totals.pip_tests);
  EXPECT_EQ(points_scanned, points.size());
}

// ---------------------------------------------------------------------------
// Store-backed profiles: zone-map pruning over the mapped view.

struct ProfiledStore {
  std::string path;
  data::RegionSet regions;
  std::unique_ptr<store::StoreReader> reader;

  ~ProfiledStore() { std::remove(path.c_str()); }
};

// Each test gets its own file: ctest runs discovered tests as separate
// processes, so a shared path would race under `ctest -j`.
std::unique_ptr<ProfiledStore> MakeProfiledStore(const std::string& name) {
  auto world = std::make_unique<ProfiledStore>();
  world->path = ::testing::TempDir() + "/" + name;
  world->regions = testing::MakeRandomRegions(5, 0x90F1);
  const data::PointTable table = testing::MakeDyadicPoints(8000, 0x90F2);
  store::StoreWriterOptions options;
  options.block_rows = 1024;
  EXPECT_TRUE(store::WritePointStore(table, world->path, options).ok());
  auto reader = store::StoreReader::Open(world->path);
  EXPECT_TRUE(reader.ok());
  world->reader = std::make_unique<store::StoreReader>(std::move(*reader));
  return world;
}

TEST(ProfileStoreBackedTest, StoreProfileIsBitStableAcrossRuns) {
  auto world = MakeProfiledStore("profile_golden.ust");
  auto view = world->reader->MappedTable();
  ASSERT_TRUE(view.ok());
  core::SpatialAggregation engine(*view, world->regions);
  engine.AttachZoneMaps(&world->reader->zone_maps());

  // A selective window, so the document's "store" section is non-zero.
  core::AggregationQuery query;
  query.aggregate = core::AggregateSpec::Count();
  query.filter.spatial_window = geometry::BoundingBox(0.0, 0.0, 30.0, 30.0);
  std::vector<std::string> dumps;
  for (int run = 0; run < 2; ++run) {
    QueryProfile profile;
    TraceContext fixed;
    ASSERT_TRUE(ParseTraceparent(kValidTraceparent, &fixed));
    profile.context = fixed;
    query.profile = &profile;
    ASSERT_TRUE(engine.Execute(query, core::ExecutionMethod::kScan).ok());
    EXPECT_EQ(profile.blocks_total, 8u);  // 8000 rows / 1024 block_rows
    EXPECT_GT(profile.blocks_pruned, 0u);
    EXPECT_GT(profile.rows_pruned, 0u);
    data::JsonValue doc = profile.ToJson();
    CanonicalizeProfileJson(&doc);
    EXPECT_EQ(doc.Find("store")->Find("blocks_pruned")->AsNumber(),
              static_cast<double>(profile.blocks_pruned));
    dumps.push_back(doc.Dump(2));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(ProfileTableTest, TableRendersTotalsAndShards) {
  const auto points = testing::MakeDyadicPoints(3000, 0x7AB1);
  const auto regions = testing::MakeTessellationRegions(2, 19);
  core::SpatialAggregation engine(points, regions);
  engine.set_num_shards(2);
  QueryProfile profile;
  profile.context = GenerateTraceContext();
  ASSERT_TRUE(
      engine.Execute(SumQuery(&profile), core::ExecutionMethod::kScan).ok());
  const std::string table = profile.ToTable();
  EXPECT_NE(table.find(profile.context.TraceIdHex()), std::string::npos);
  EXPECT_NE(table.find("counters"), std::string::npos);
  EXPECT_NE(table.find("shards   count=2"), std::string::npos) << table;
}

// An attached profile alone (metrics off) must clock the accurate join's
// exact boundary refine: a query that ran point-in-polygon tests cannot
// report that they took no time.
TEST(ProfileRefineTest, ProfileOnlyAccurateQueryClocksRefine) {
  const bool metrics_was = MetricsEnabled();
  SetMetricsEnabled(false);
  const auto points = testing::MakeUniformPoints(50000, 0x5EF1);
  const auto regions = testing::MakeRandomRegions(6, 0x5EF1);
  core::SpatialAggregation engine(points, regions);
  QueryProfile profile;
  core::AggregationQuery query;
  query.aggregate = core::AggregateSpec::Count();
  query.profile = &profile;
  const auto result =
      engine.Execute(query, core::ExecutionMethod::kAccurateRaster);
  SetMetricsEnabled(metrics_was);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(profile.method, "accurate");
  ASSERT_GT(profile.totals.pip_tests, 0u);
  EXPECT_GT(profile.totals.refine_seconds, 0.0);
}

}  // namespace
}  // namespace urbane::obs
