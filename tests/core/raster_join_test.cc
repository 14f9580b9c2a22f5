#include "core/raster_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/accurate_join.h"
#include "core/index_join.h"
#include "core/planner.h"
#include "core/scan_join.h"
#include "obs/profile.h"
#include "testing/test_worlds.h"

namespace urbane::core {
namespace {

TEST(MakeCanvasTest, LongerSideGetsResolution) {
  const auto wide = MakeCanvas(geometry::BoundingBox(0, 0, 200, 100), 512);
  EXPECT_EQ(wide.width(), 512);
  EXPECT_EQ(wide.height(), 256);
  const auto tall = MakeCanvas(geometry::BoundingBox(0, 0, 100, 200), 512);
  EXPECT_EQ(tall.height(), 512);
  EXPECT_EQ(tall.width(), 256);
}

TEST(ResolutionForEpsilonTest, HonorsErrorBound) {
  const geometry::BoundingBox world(0, 0, 1000, 800);
  for (const double eps : {50.0, 10.0, 1.0}) {
    const int res = ResolutionForEpsilon(world, eps);
    const auto canvas = MakeCanvas(world, res);
    EXPECT_LE(canvas.EpsilonWorld(), eps * 1.001)
        << "resolution " << res << " violates epsilon " << eps;
  }
  // Tighter epsilon -> more pixels.
  EXPECT_GT(ResolutionForEpsilon(world, 1.0),
            ResolutionForEpsilon(world, 50.0));
}

// |bounded - exact| never exceeds the reported per-region bound, over
// random worlds (overlapping stars and tessellations), resolutions that are
// not powers of two, COUNT and SUM, and every filter kind. COUNT must hold
// exactly; SUM gets 1e-6 for float summation order. AVG/MIN/MAX are left
// out: their bound is only the count of boundary points.
TEST(BoundedRasterJoinTest, ApproximationWithinReportedBound) {
  std::vector<FilterSpec> filters(4);  // [0] is unfiltered
  filters[1].WithTime(20000, 60000);
  filters[2].WithRange("v", -3.0, 5.0);
  filters[3].WithWindow(geometry::BoundingBox(20.0, 30.0, 70.0, 85.0));
  const AggregateSpec aggregates[] = {AggregateSpec::Count(),
                                      AggregateSpec::Sum("v")};
  double total_error = 0.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto points = testing::MakeUniformPoints(5000, 31 * seed);
    for (const bool tessellation : {false, true}) {
      const data::RegionSet regions =
          tessellation ? testing::MakeTessellationRegions(3, 32 * seed)
                       : testing::MakeRandomRegions(6, 32 * seed);
      auto scan = ScanJoin::Create(points, regions);
      ASSERT_TRUE(scan.ok());
      for (const int resolution : {24, 97, 400}) {
        RasterJoinOptions options;
        options.resolution = resolution;
        auto raster = BoundedRasterJoin::Create(points, regions, options);
        ASSERT_TRUE(raster.ok());
        for (const AggregateSpec& aggregate : aggregates) {
          const double slack =
              aggregate.kind == AggregateKind::kCount ? 0.0 : 1e-6;
          for (std::size_t f = 0; f < filters.size(); ++f) {
            AggregationQuery query;
            query.points = &points;
            query.regions = &regions;
            query.aggregate = aggregate;
            query.filter = filters[f];
            const auto approx = (*raster)->Execute(query);
            const auto exact = (*scan)->Execute(query);
            ASSERT_TRUE(approx.ok());
            ASSERT_TRUE(exact.ok());
            ASSERT_EQ(approx->error_bounds.size(), regions.size());
            for (std::size_t r = 0; r < regions.size(); ++r) {
              const double error =
                  std::fabs(approx->values[r] - exact->values[r]);
              total_error += error;
              EXPECT_LE(error, approx->error_bounds[r] + slack)
                  << "seed " << seed
                  << (tessellation ? " tessellation" : " stars")
                  << " resolution " << resolution << " "
                  << AggregateKindToString(aggregate.kind) << " filter " << f
                  << " region " << r << " bound "
                  << approx->error_bounds[r];
            }
          }
        }
      }
    }
  }
  // The sweep must include real approximation error, or it proves nothing.
  EXPECT_GT(total_error, 0.0);
}

TEST(BoundedRasterJoinTest, ErrorShrinksWithResolution) {
  const auto points = testing::MakeUniformPoints(30000, 33);
  const auto regions = testing::MakeRandomRegions(5, 34);
  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(scan.ok());
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  const auto exact = (*scan)->Execute(query);
  ASSERT_TRUE(exact.ok());

  double total_error_coarse = 0.0;
  double total_error_fine = 0.0;
  for (const int resolution : {64, 1024}) {
    RasterJoinOptions options;
    options.resolution = resolution;
    auto raster = BoundedRasterJoin::Create(points, regions, options);
    ASSERT_TRUE(raster.ok());
    const auto approx = (*raster)->Execute(query);
    ASSERT_TRUE(approx.ok());
    double total = 0.0;
    for (std::size_t r = 0; r < regions.size(); ++r) {
      total += std::fabs(approx->values[r] - exact->values[r]);
    }
    (resolution == 64 ? total_error_coarse : total_error_fine) = total;
  }
  EXPECT_LT(total_error_fine, total_error_coarse);
}

TEST(BoundedRasterJoinTest, SumAggregateBounded) {
  const auto points = testing::MakeUniformPoints(10000, 35);
  const auto regions = testing::MakeRandomRegions(4, 36);
  RasterJoinOptions options;
  options.resolution = 200;
  auto raster = BoundedRasterJoin::Create(points, regions, options);
  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(raster.ok());
  ASSERT_TRUE(scan.ok());
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  query.aggregate = AggregateSpec::Sum("v");
  const auto approx = (*raster)->Execute(query);
  const auto exact = (*scan)->Execute(query);
  ASSERT_TRUE(approx.ok());
  ASSERT_TRUE(exact.ok());
  for (std::size_t r = 0; r < regions.size(); ++r) {
    EXPECT_LE(std::fabs(approx->values[r] - exact->values[r]),
              approx->error_bounds[r] + 1e-6);
  }
}

TEST(BoundedRasterJoinTest, EpsilonMatchesCanvas) {
  const auto points = testing::MakeUniformPoints(100, 39);
  const auto regions = testing::MakeRandomRegions(2, 39);
  RasterJoinOptions options;
  options.resolution = 512;
  auto raster = BoundedRasterJoin::Create(points, regions, options);
  ASSERT_TRUE(raster.ok());
  EXPECT_GT((*raster)->EpsilonWorld(), 0.0);
  EXPECT_DOUBLE_EQ((*raster)->EpsilonWorld(),
                   (*raster)->canvas().EpsilonWorld());
  EXPECT_EQ((*raster)->name(), "raster");
  EXPECT_FALSE((*raster)->exact());
}

// Rows [begin, end) of `table` as a table of their own.
data::PointTable TakeRows(const data::PointTable& table, std::size_t begin,
                          std::size_t end) {
  data::PointTable out(table.schema());
  for (std::size_t i = begin; i < end; ++i) {
    EXPECT_TRUE(
        out.AppendRow(table.x(i), table.y(i), table.t(i),
                      {table.attribute(i, 0)})
            .ok());
  }
  return out;
}

// A join composed of point sources answers like the one-table join over
// their rows concatenated. The raster joins and the scan accumulate across
// sources in source order — each pixel, each region — so they answer bit
// for bit on arbitrary floats; the index join adds each source along its
// own grid's cells, so its SUM and AVG agree to rounding and the rest
// exactly. Candidate ranges address the concatenated rows and are split per
// source, so ranges that straddle a source boundary select the same rows
// either way.
TEST(RasterJoinCompositionTest, SourcesMatchConcatenatedTable) {
  const auto all = testing::MakeUniformPoints(3000, 81);
  const auto regions = testing::MakeRandomRegions(5, 82);
  const data::PointTable parts[] = {TakeRows(all, 0, 1700),
                                    TakeRows(all, 1700, 1701),
                                    TakeRows(all, 1701, 3000)};
  RasterJoinOptions options;
  options.resolution = 96;
  const auto canvas = MakeValidatedCanvas(regions, options.resolution);
  ASSERT_TRUE(canvas.ok());
  const RowRangeSet straddling({{100, 1700}, {1700, 1702}, {2900, 3000}});
  std::vector<FilterSpec> filters(2);
  filters[1].WithTime(20000, 60000).WithRange("v", -4.0, 6.0);

  for (const ExecutionMethod method :
       {ExecutionMethod::kScan, ExecutionMethod::kIndexJoin,
        ExecutionMethod::kBoundedRaster, ExecutionMethod::kAccurateRaster}) {
    const std::string name = ExecutionMethodToString(method);
    std::unique_ptr<SpatialAggregationExecutor> composed;
    std::unique_ptr<SpatialAggregationExecutor> whole;
    if (method == ExecutionMethod::kScan) {
      const auto rtree = ScanJoin::BuildRegionIndex(regions);
      ASSERT_TRUE(rtree.ok()) << rtree.status().ToString();
      std::vector<const data::PointTable*> sources;
      for (const data::PointTable& part : parts) sources.push_back(&part);
      composed = std::make_unique<ScanJoin>(all, regions, *rtree, sources);
      whole = std::move(ScanJoin::Create(all, regions)).value();
    } else if (method == ExecutionMethod::kIndexJoin) {
      std::vector<IndexSource> sources;
      for (const data::PointTable& part : parts) {
        auto grid = IndexJoin::BuildGrid(part, regions, IndexJoinOptions());
        ASSERT_TRUE(grid.ok()) << grid.status().ToString();
        sources.push_back({&part, *grid});
      }
      composed = std::make_unique<IndexJoin>(all, regions, sources);
      whole = std::move(IndexJoin::Create(all, regions)).value();
    } else {
      const bool accurate = method == ExecutionMethod::kAccurateRaster;
      const auto region =
          accurate ? AccurateRasterJoin::BuildRegionState(regions, *canvas)
                   : BoundedRasterJoin::BuildRegionState(regions, *canvas,
                                                         options);
      ASSERT_TRUE(region.ok()) << region.status().ToString();
      RasterSources sources;
      for (const data::PointTable& part : parts) {
        sources.push_back(RasterPointSource::Build(**region, part));
      }
      if (accurate) {
        composed = std::make_unique<AccurateRasterJoin>(all, regions,
                                                        *region, sources);
        whole = std::move(AccurateRasterJoin::Create(all, regions, options))
                    .value();
      } else {
        composed = std::make_unique<BoundedRasterJoin>(all, regions, options,
                                                       *region, sources);
        whole = std::move(BoundedRasterJoin::Create(all, regions, options))
                    .value();
      }
    }
    for (const AggregateSpec& aggregate :
         {AggregateSpec::Count(), AggregateSpec::Sum("v"),
          AggregateSpec::Avg("v"), AggregateSpec::Min("v"),
          AggregateSpec::Max("v")}) {
      const bool rounds = method == ExecutionMethod::kIndexJoin &&
                          (aggregate.kind == AggregateKind::kSum ||
                           aggregate.kind == AggregateKind::kAvg);
      for (const FilterSpec& filter : filters) {
        for (const RowRangeSet* candidates :
             {static_cast<const RowRangeSet*>(nullptr), &straddling}) {
          AggregationQuery query;
          query.points = &all;
          query.regions = &regions;
          query.aggregate = aggregate;
          query.filter = filter;
          query.candidate_ranges = candidates;
          const auto got = composed->Execute(query);
          const auto want = whole->Execute(query);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_TRUE(want.ok()) << want.status().ToString();
          EXPECT_EQ(got->counts, want->counts) << name;
          EXPECT_EQ(got->error_bounds, want->error_bounds) << name;
          for (std::size_t r = 0; r < regions.size(); ++r) {
            const std::string what = name + " " +
                                     AggregateKindToString(aggregate.kind) +
                                     " region " + std::to_string(r);
            if (rounds && !std::isnan(want->values[r])) {
              EXPECT_NEAR(got->values[r], want->values[r],
                          1e-9 * std::max(1.0, std::fabs(want->values[r])))
                  << what;
              continue;
            }
            EXPECT_TRUE((std::isnan(got->values[r]) &&
                         std::isnan(want->values[r])) ||
                        std::bit_cast<std::uint64_t>(got->values[r]) ==
                            std::bit_cast<std::uint64_t>(want->values[r]))
                << what;
          }
        }
      }
    }
  }
}

TEST(BoundedRasterJoinTest, RejectsBadOptions) {
  const auto points = testing::MakeUniformPoints(10, 1);
  const auto regions = testing::MakeRandomRegions(2, 1);
  RasterJoinOptions bad;
  bad.resolution = 0;
  EXPECT_FALSE(BoundedRasterJoin::Create(points, regions, bad).ok());
  bad.resolution = -3;
  EXPECT_FALSE(BoundedRasterJoin::Create(points, regions, bad).ok());
}

TEST(BoundedRasterJoinTest, SpatialWindowFilterApplied) {
  const auto points = testing::MakeUniformPoints(5000, 44);
  const auto regions = testing::MakeRandomRegions(3, 45);
  RasterJoinOptions options;
  options.resolution = 128;
  auto raster = BoundedRasterJoin::Create(points, regions, options);
  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(raster.ok());
  ASSERT_TRUE(scan.ok());
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  query.filter.WithWindow(geometry::BoundingBox(20, 20, 80, 80));
  const auto approx = (*raster)->Execute(query);
  const auto exact = (*scan)->Execute(query);
  ASSERT_TRUE(approx.ok());
  ASSERT_TRUE(exact.ok());
  for (std::size_t r = 0; r < regions.size(); ++r) {
    EXPECT_LE(std::fabs(approx->values[r] - exact->values[r]),
              approx->error_bounds[r] + 1e-9);
  }
}

TEST(BoundedRasterJoinTest, StatsTrackPixelsAndBoundary) {
  const auto points = testing::MakeUniformPoints(1000, 40);
  const auto regions = testing::MakeRandomRegions(3, 40);
  RasterJoinOptions options;
  options.resolution = 128;
  auto raster = BoundedRasterJoin::Create(points, regions, options);
  ASSERT_TRUE(raster.ok());
  obs::QueryProfile profile;
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  query.profile = &profile;
  ASSERT_TRUE((*raster)->Execute(query).ok());
  EXPECT_GT(profile.totals.pixels_touched, 0u);
  EXPECT_GT(profile.totals.boundary_pixels, 0u);
  EXPECT_EQ(profile.totals.points_scanned, 1000u);
}

TEST(BoundedRasterJoinTest, DisablingBoundsSkipsThem) {
  const auto points = testing::MakeUniformPoints(500, 41);
  const auto regions = testing::MakeRandomRegions(2, 41);
  RasterJoinOptions options;
  options.resolution = 64;
  options.compute_error_bounds = false;
  auto raster = BoundedRasterJoin::Create(points, regions, options);
  ASSERT_TRUE(raster.ok());
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  const auto result = (*raster)->Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->error_bounds.empty());
}

}  // namespace
}  // namespace urbane::core
