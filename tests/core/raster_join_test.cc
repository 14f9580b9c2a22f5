#include "core/raster_join.h"

#include <gtest/gtest.h>

#include <cmath>

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

TEST(BoundedRasterJoinTest, ApproximationWithinReportedBound) {
  const auto points = testing::MakeUniformPoints(20000, 31);
  const auto regions = testing::MakeRandomRegions(6, 32);
  RasterJoinOptions options;
  options.resolution = 256;
  auto raster = BoundedRasterJoin::Create(points, regions, options);
  auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(raster.ok());
  ASSERT_TRUE(scan.ok());

  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  const auto approx = (*raster)->Execute(query);
  const auto exact = (*scan)->Execute(query);
  ASSERT_TRUE(approx.ok());
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(approx->error_bounds.size(), regions.size());
  for (std::size_t r = 0; r < regions.size(); ++r) {
    const double error =
        std::fabs(approx->values[r] - exact->values[r]);
    EXPECT_LE(error, approx->error_bounds[r] + 1e-9)
        << "region " << r << " error " << error << " exceeds bound "
        << approx->error_bounds[r];
  }
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

TEST(BoundedRasterJoinTest, RejectsBadOptions) {
  const auto points = testing::MakeUniformPoints(10, 1);
  const auto regions = testing::MakeRandomRegions(2, 1);
  RasterJoinOptions bad;
  bad.resolution = 0;
  EXPECT_FALSE(BoundedRasterJoin::Create(points, regions, bad).ok());
  RasterJoinOptions tiny_world;
  tiny_world.world = geometry::BoundingBox(0, 0, 1, 1);  // doesn't cover
  EXPECT_FALSE(BoundedRasterJoin::Create(points, regions, tiny_world).ok());
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
