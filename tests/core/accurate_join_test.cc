#include "core/accurate_join.h"

#include <gtest/gtest.h>

#include "core/scan_join.h"
#include "data/region_generator.h"
#include "obs/profile.h"
#include "testing/test_worlds.h"

namespace urbane::core {
namespace {

TEST(AccurateRasterJoinTest, ExactCountsMatchScan) {
  const auto points = testing::MakeUniformPoints(20000, 51);
  const auto regions = testing::MakeRandomRegions(8, 52);
  RasterJoinOptions options;
  options.resolution = 128;  // coarse canvas: lots of boundary work, still exact
  auto accurate = AccurateRasterJoin::Create(points, regions, options);
  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(accurate.ok());
  ASSERT_TRUE(scan.ok());

  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  const auto a = (*accurate)->Execute(query);
  const auto b = (*scan)->Execute(query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t r = 0; r < regions.size(); ++r) {
    EXPECT_EQ(a->counts[r], b->counts[r]) << "region " << r;
    EXPECT_DOUBLE_EQ(a->values[r], b->values[r]) << "region " << r;
  }
}

TEST(AccurateRasterJoinTest, ExactAcrossResolutions) {
  const auto points = testing::MakeUniformPoints(8000, 53);
  const auto regions = testing::MakeRandomRegions(4, 54);
  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(scan.ok());
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  const auto exact = (*scan)->Execute(query);
  ASSERT_TRUE(exact.ok());
  for (const int resolution : {32, 64, 256, 1024}) {
    RasterJoinOptions options;
    options.resolution = resolution;
    auto accurate = AccurateRasterJoin::Create(points, regions, options);
    ASSERT_TRUE(accurate.ok());
    const auto result = (*accurate)->Execute(query);
    ASSERT_TRUE(result.ok());
    for (std::size_t r = 0; r < regions.size(); ++r) {
      EXPECT_EQ(result->counts[r], exact->counts[r])
          << "resolution " << resolution << " region " << r;
    }
  }
}

TEST(AccurateRasterJoinTest, ExactWithHolesAndFilters) {
  const auto points = testing::MakeUniformPoints(10000, 55);
  data::TessellationOptions topts;
  topts.cells_x = 4;
  topts.cells_y = 4;
  topts.bounds = geometry::BoundingBox(0, 0, 100.0, 100.0);
  topts.hole_probability = 0.5;
  const auto regions = data::GenerateTessellation(topts);
  RasterJoinOptions options;
  options.resolution = 200;
  auto accurate = AccurateRasterJoin::Create(points, regions, options);
  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(accurate.ok());
  ASSERT_TRUE(scan.ok());

  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  query.aggregate = AggregateSpec::Avg("v");
  query.filter.WithTime(10000, 70000).WithRange("v", -8.0, 8.0);
  const auto a = (*accurate)->Execute(query);
  const auto b = (*scan)->Execute(query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t r = 0; r < regions.size(); ++r) {
    EXPECT_EQ(a->counts[r], b->counts[r]) << "region " << r;
    if (a->counts[r] > 0) {
      EXPECT_NEAR(a->values[r], b->values[r], 1e-9) << "region " << r;
    }
  }
}

TEST(AccurateRasterJoinTest, MinMaxExact) {
  const auto points = testing::MakeUniformPoints(5000, 56);
  const auto regions = testing::MakeRandomRegions(4, 57);
  RasterJoinOptions options;
  options.resolution = 96;
  auto accurate = AccurateRasterJoin::Create(points, regions, options);
  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(accurate.ok());
  ASSERT_TRUE(scan.ok());
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  for (const auto& spec :
       {AggregateSpec::Min("v"), AggregateSpec::Max("v")}) {
    query.aggregate = spec;
    const auto a = (*accurate)->Execute(query);
    const auto b = (*scan)->Execute(query);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    for (std::size_t r = 0; r < regions.size(); ++r) {
      if (b->counts[r] > 0) {
        EXPECT_FLOAT_EQ(static_cast<float>(a->values[r]),
                        static_cast<float>(b->values[r]))
            << "region " << r;
      }
    }
  }
}

TEST(AccurateRasterJoinTest, TessellationCountsSumToTotal) {
  // A partition of the world must account for every point exactly once.
  const auto points = testing::MakeUniformPoints(30000, 58);
  const auto regions = testing::MakeTessellationRegions(6, 59);
  RasterJoinOptions options;
  options.resolution = 256;
  auto accurate = AccurateRasterJoin::Create(points, regions, options);
  ASSERT_TRUE(accurate.ok());
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  const auto result = (*accurate)->Execute(query);
  ASSERT_TRUE(result.ok());
  std::uint64_t total = 0;
  for (const auto count : result->counts) {
    total += count;
  }
  EXPECT_EQ(total, points.size());
}

TEST(AccurateRasterJoinTest, SpatialWindowFilterExact) {
  const auto points = testing::MakeUniformPoints(8000, 64);
  const auto regions = testing::MakeRandomRegions(4, 65);
  RasterJoinOptions options;
  options.resolution = 128;
  auto accurate = AccurateRasterJoin::Create(points, regions, options);
  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(accurate.ok());
  ASSERT_TRUE(scan.ok());
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  query.filter.WithWindow(geometry::BoundingBox(15, 25, 85, 95));
  const auto a = (*accurate)->Execute(query);
  const auto b = (*scan)->Execute(query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->counts, b->counts);
}

TEST(AccurateRasterJoinTest, StatsShowHybridSplit) {
  const auto points = testing::MakeUniformPoints(10000, 60);
  const auto regions = testing::MakeRandomRegions(4, 61);
  RasterJoinOptions options;
  options.resolution = 256;
  auto accurate = AccurateRasterJoin::Create(points, regions, options);
  ASSERT_TRUE(accurate.ok());
  obs::QueryProfile profile;
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  query.profile = &profile;
  ASSERT_TRUE((*accurate)->Execute(query).ok());
  const obs::ProfilePassCosts& stats = profile.totals;
  EXPECT_GT(stats.points_bulk, 0u) << "interior pixels should be bulk-taken";
  EXPECT_GT(stats.pip_tests, 0u) << "boundary pixels need exact tests";
  EXPECT_GT(stats.boundary_pixels, 0u);
  EXPECT_EQ((*accurate)->name(), "accurate");
  EXPECT_TRUE((*accurate)->exact());
  EXPECT_GT((*accurate)->MemoryBytes(), 0u);
}

// The refine skips a boundary pixel no selected point hit before walking
// any run, which is exact: a run holds only its own pixel's points. A
// filter that selects nothing walks no row; an unfiltered query tests every
// row it walks; answers match the scan either way.
TEST(AccurateRasterJoinTest, CountGatedRefineWalksOnlyOccupiedPixels) {
  const auto points = testing::MakeUniformPoints(5000, 71);
  const auto regions = testing::MakeTessellationRegions(3, 72);
  RasterJoinOptions options;
  options.resolution = 64;
  auto accurate = AccurateRasterJoin::Create(points, regions, options);
  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(accurate.ok());
  ASSERT_TRUE(scan.ok());

  const auto run = [&](const FilterSpec& filter, obs::QueryProfile* profile) {
    AggregationQuery query;
    query.points = &points;
    query.regions = &regions;
    query.aggregate = AggregateSpec::Sum("v");
    query.filter = filter;
    query.profile = profile;
    const auto a = (*accurate)->Execute(query);
    query.profile = nullptr;
    const auto b = (*scan)->Execute(query);
    EXPECT_TRUE(a.ok());
    EXPECT_TRUE(b.ok());
    if (a.ok() && b.ok()) {
      EXPECT_EQ(a->counts, b->counts);
    }
  };

  FilterSpec nothing;
  nothing.WithTime(100000, 200000);  // every t is below 86400
  obs::QueryProfile none;
  run(nothing, &none);
  EXPECT_EQ(none.totals.refine_rows, 0u);
  EXPECT_EQ(none.totals.pip_tests, 0u);
  EXPECT_GT(none.totals.boundary_pixels, 0u);

  obs::QueryProfile all;
  run(FilterSpec(), &all);
  EXPECT_GT(all.totals.pip_tests, 0u);
  EXPECT_EQ(all.totals.refine_rows, all.totals.pip_tests);

  FilterSpec half;
  half.WithTime(0, 43200);
  obs::QueryProfile some;
  run(half, &some);
  EXPECT_GT(some.totals.pip_tests, 0u);
  EXPECT_LE(some.totals.pip_tests, some.totals.refine_rows);
  EXPECT_LT(some.totals.refine_rows, all.totals.refine_rows);
}

TEST(AccurateRasterJoinTest, HigherResolutionNeedsFewerExactTests) {
  const auto points = testing::MakeUniformPoints(20000, 62);
  const auto regions = testing::MakeRandomRegions(4, 63);
  obs::QueryProfile profile;
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  query.profile = &profile;
  std::size_t coarse_tests = 0;
  std::size_t fine_tests = 0;
  for (const int resolution : {64, 512}) {
    RasterJoinOptions options;
    options.resolution = resolution;
    auto accurate = AccurateRasterJoin::Create(points, regions, options);
    ASSERT_TRUE(accurate.ok());
    ASSERT_TRUE((*accurate)->Execute(query).ok());
    (resolution == 64 ? coarse_tests : fine_tests) =
        profile.totals.pip_tests;
  }
  EXPECT_LT(fine_tests, coarse_tests);
}

// The refine finds a boundary pixel's points in the Morton order, which
// covers canvases up to 65535 pixels a side; a wider one is rejected.
TEST(AccurateRasterJoinTest, RejectsCanvasBeyondMortonRange) {
  data::PointTable points(data::Schema(std::vector<std::string>{"v"}));
  for (int i = 0; i < 64; ++i) {
    points.AppendXyt(static_cast<float>(1093.75 * i + 0.5), 0.5f, i);
    points.mutable_attribute_column(0).push_back(static_cast<float>(i));
  }
  data::RegionSet regions;
  data::Region strip;
  strip.id = 1;
  strip.geometry = geometry::MultiPolygon(geometry::Polygon(geometry::Ring{
      {100.3, 0.2}, {41000.7, 0.2}, {41000.7, 0.8}, {100.3, 0.8}}));
  ASSERT_TRUE(regions.Add(strip).ok());
  RasterJoinOptions options;

  options.resolution = 70000;  // a 70000x1 canvas
  const auto too_wide = AccurateRasterJoin::Create(points, regions, options);
  EXPECT_EQ(too_wide.status().code(), StatusCode::kInvalidArgument);

  options.resolution = 65535;  // a 65535x1 canvas
  const auto widest = AccurateRasterJoin::Create(points, regions, options);
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ((*widest)->canvas().width(), 65535);
  EXPECT_EQ((*widest)->canvas().height(), 1);
  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(scan.ok());
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  query.aggregate = AggregateSpec::Sum("v");
  const auto a = (*widest)->Execute(query);
  const auto b = (*scan)->Execute(query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->counts, b->counts);
  EXPECT_EQ(a->values, b->values);
}

}  // namespace
}  // namespace urbane::core
