#include "raster/point_splat.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "util/random.h"

namespace urbane::raster {
namespace {

using geometry::BoundingBox;

TEST(SplatPointsTest, CountsLandInRightPixels) {
  const Viewport vp(BoundingBox(0, 0, 10, 10), 10, 10);
  const std::vector<float> xs = {0.5f, 0.6f, 9.9f};
  const std::vector<float> ys = {0.5f, 0.4f, 9.9f};
  Buffer2D<std::uint32_t> counts(10, 10, 0);
  const std::size_t hits =
      SplatPoints(vp, xs.data(), ys.data(), xs.size(), BlendOp::kAdd,
                  [](std::size_t) { return 1u; }, counts);
  EXPECT_EQ(hits, 3u);
  EXPECT_EQ(counts.at(0, 0), 2u);
  EXPECT_EQ(counts.at(9, 9), 1u);
}

TEST(SplatPointsTest, OutOfBoundsSkipped) {
  const Viewport vp(BoundingBox(0, 0, 10, 10), 10, 10);
  const std::vector<float> xs = {-1.0f, 11.0f, 5.0f};
  const std::vector<float> ys = {5.0f, 5.0f, 5.0f};
  Buffer2D<std::uint32_t> counts(10, 10, 0);
  const std::size_t hits =
      SplatPoints(vp, xs.data(), ys.data(), xs.size(), BlendOp::kAdd,
                  [](std::size_t) { return 1u; }, counts);
  EXPECT_EQ(hits, 1u);
}

TEST(SplatPointsTest, WeightedSum) {
  const Viewport vp(BoundingBox(0, 0, 4, 4), 4, 4);
  const std::vector<float> xs = {1.5f, 1.5f};
  const std::vector<float> ys = {1.5f, 1.5f};
  const std::vector<float> weights = {2.5f, 4.0f};
  Buffer2D<float> sums(4, 4, 0.0f);
  SplatPoints(vp, xs.data(), ys.data(), xs.size(), BlendOp::kAdd,
              [&](std::size_t i) { return weights[i]; }, sums);
  EXPECT_FLOAT_EQ(sums.at(1, 1), 6.5f);
}

TEST(SplatPointsTest, MinMaxBlending) {
  const Viewport vp(BoundingBox(0, 0, 4, 4), 4, 4);
  const std::vector<float> xs = {0.5f, 0.5f, 0.5f};
  const std::vector<float> ys = {0.5f, 0.5f, 0.5f};
  const std::vector<float> v = {3.0f, -1.0f, 2.0f};
  Buffer2D<float> mins(4, 4, std::numeric_limits<float>::infinity());
  SplatPoints(vp, xs.data(), ys.data(), xs.size(), BlendOp::kMin,
              [&](std::size_t i) { return v[i]; }, mins);
  EXPECT_FLOAT_EQ(mins.at(0, 0), -1.0f);
  Buffer2D<float> maxs(4, 4, -std::numeric_limits<float>::infinity());
  SplatPoints(vp, xs.data(), ys.data(), xs.size(), BlendOp::kMax,
              [&](std::size_t i) { return v[i]; }, maxs);
  EXPECT_FLOAT_EQ(maxs.at(0, 0), 3.0f);
}

TEST(SplatPointsSubsetTest, OnlySubsetSplatted) {
  const Viewport vp(BoundingBox(0, 0, 4, 4), 4, 4);
  const std::vector<float> xs = {0.5f, 1.5f, 2.5f};
  const std::vector<float> ys = {0.5f, 1.5f, 2.5f};
  const std::vector<std::uint32_t> subset = {0, 2};
  Buffer2D<std::uint32_t> counts(4, 4, 0);
  SplatPointsSubset(vp, xs.data(), ys.data(), subset, BlendOp::kAdd,
                    [](std::size_t) { return 1u; }, counts);
  EXPECT_EQ(counts.at(0, 0), 1u);
  EXPECT_EQ(counts.at(1, 1), 0u);
  EXPECT_EQ(counts.at(2, 2), 1u);
}

TEST(SplatPointsTest, TotalMassConserved) {
  Rng rng(66);
  const std::size_t n = 20000;
  std::vector<float> xs(n);
  std::vector<float> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = static_cast<float>(rng.NextDouble(0.0, 100.0));
    ys[i] = static_cast<float>(rng.NextDouble(0.0, 100.0));
  }
  const Viewport vp(BoundingBox(0, 0, 100.0001, 100.0001), 37, 53);
  Buffer2D<std::uint32_t> counts(37, 53, 0);
  const std::size_t hits =
      SplatPoints(vp, xs.data(), ys.data(), n, BlendOp::kAdd,
                  [](std::size_t) { return 1u; }, counts);
  EXPECT_EQ(hits, n);
  const std::uint64_t total = std::accumulate(
      counts.data().begin(), counts.data().end(), std::uint64_t{0});
  EXPECT_EQ(total, n);
}

// kReplace is order-dependent: the splat keeps the last write per pixel.
TEST(SplatPointsTest, ReplaceKeepsLastWrite) {
  const Viewport vp(BoundingBox(0, 0, 8, 8), 8, 8);
  const std::vector<float> xs = {1.5f, 1.5f};
  const std::vector<float> ys = {2.5f, 2.5f};
  Buffer2D<float> target(8, 8, 0.0f);
  const std::size_t hits =
      SplatPoints(vp, xs.data(), ys.data(), xs.size(), BlendOp::kReplace,
                  [](std::size_t i) { return 3.0f + i; }, target);
  EXPECT_EQ(hits, 2u);
  EXPECT_EQ(target.at(1, 2), 4.0f);  // last write wins
}

}  // namespace
}  // namespace urbane::raster
