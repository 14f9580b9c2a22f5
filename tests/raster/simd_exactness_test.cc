// Bit-identity fuzz suite for the SIMD splat and sweep kernels.
//
// The kernels' contract is bit-identity, not approximation: every kernel
// table (scalar/SSE2/AVX2) computes the same function, and a Morton-ordered
// splat reproduces the row-ordered splat's per-pixel values bit for bit.
// These tests fuzz each claim directly. The suite also checks the scanline
// fill against the triangle oracle on a polygon with a hole.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "raster/buffer.h"
#include "raster/kernels.h"
#include "raster/morton.h"
#include "raster/point_splat.h"
#include "raster/rasterizer.h"
#include "raster/simd.h"
#include "raster/viewport.h"
#include "util/random.h"

namespace urbane::raster {
namespace {

/// Every kernel table this CPU can run, scalar first.
std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kOff};
  const int max = static_cast<int>(CpuMaxSimdLevel());
  if (max >= static_cast<int>(SimdLevel::kSse2)) {
    levels.push_back(SimdLevel::kSse2);
  }
  if (max >= static_cast<int>(SimdLevel::kAvx2)) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

/// Canvas whose world->pixel map is the identity (pixel_w == pixel_h == 1).
Viewport IdentityCanvas(int width, int height) {
  return Viewport(geometry::BoundingBox(0.0, 0.0, width, height), width,
                  height);
}

std::uint64_t PixelKey(int x, int y) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(y)) << 32) |
         static_cast<std::uint32_t>(x);
}

// ---------------------------------------------------------------------------
// Kernel tables agree bit-for-bit on random inputs.
// ---------------------------------------------------------------------------

TEST(SimdKernels, PixelIndicesAgreeAcrossLevels) {
  const Viewport vp = IdentityCanvas(128, 96);
  const SplatGeometry geom = SplatGeometry::From(vp);
  Rng rng(0xC0FFEE);
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 1 + rng.NextUint64(257);
    std::vector<float> xs(n);
    std::vector<float> ys(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Mostly inside, some outside, occasional NaN.
      xs[i] = static_cast<float>(rng.NextDouble(-20.0, 150.0));
      ys[i] = static_cast<float>(rng.NextDouble(-20.0, 120.0));
      if (rng.NextUint64(37) == 0) {
        xs[i] = std::numeric_limits<float>::quiet_NaN();
      }
    }
    std::vector<std::uint32_t> reference(n);
    const std::size_t ref_hits =
        kScalarRasterKernels.compute_pixel_indices(geom, xs.data(), ys.data(),
                                                   n, reference.data());
    // The scalar kernel must agree with Viewport::PixelForPoint itself.
    for (std::size_t i = 0; i < n; ++i) {
      int ix;
      int iy;
      if (vp.PixelForPoint({xs[i], ys[i]}, ix, iy)) {
        ASSERT_EQ(reference[i],
                  static_cast<std::uint32_t>(iy) * vp.width() + ix);
      } else {
        ASSERT_EQ(reference[i], kInvalidPixel);
      }
    }
    for (const SimdLevel level : AvailableLevels()) {
      std::vector<std::uint32_t> out(n, 0xDEADBEEF);
      const std::size_t hits = KernelsForLevel(level).compute_pixel_indices(
          geom, xs.data(), ys.data(), n, out.data());
      EXPECT_EQ(hits, ref_hits) << SimdLevelName(level);
      EXPECT_EQ(out, reference) << SimdLevelName(level);
    }
  }
}

TEST(SimdKernels, SpanSumAndGatherAgreeAcrossLevels) {
  Rng rng(0xBADF00D);
  for (int round = 0; round < 80; ++round) {
    const std::size_t n = rng.NextUint64(300);
    std::vector<std::uint32_t> values(n);
    for (std::uint32_t& v : values) {
      // Heavy zero bias, plus occasional huge values to stress the u64 sum.
      const std::uint64_t roll = rng.NextUint64(10);
      v = roll < 6 ? 0
                   : (roll == 9 ? 0xFFFF0000u + static_cast<std::uint32_t>(
                                                    rng.NextUint64(65536))
                                : static_cast<std::uint32_t>(
                                      rng.NextUint64(100)));
    }
    const std::uint64_t ref_sum =
        kScalarRasterKernels.sum_span_u32(values.data(), n);
    std::vector<std::uint32_t> ref_gather(n);
    const std::size_t ref_hits = kScalarRasterKernels.gather_nonzero_u32(
        values.data(), n, ref_gather.data());
    ref_gather.resize(ref_hits);
    for (const SimdLevel level : AvailableLevels()) {
      const RasterKernels& kernels = KernelsForLevel(level);
      EXPECT_EQ(kernels.sum_span_u32(values.data(), n), ref_sum)
          << SimdLevelName(level);
      std::vector<std::uint32_t> gather(n);
      const std::size_t hits =
          kernels.gather_nonzero_u32(values.data(), n, gather.data());
      gather.resize(hits);
      EXPECT_EQ(gather, ref_gather) << SimdLevelName(level);
    }
  }
}

// ---------------------------------------------------------------------------
// Scanline fill == triangle oracle on a polygon with a hole. (The suite name
// is older than the test body; it is kept so recorded test names stay put.)
// ---------------------------------------------------------------------------

TEST(TiledRasterizer, PolygonWithHoleMatchesTriangleOracle) {
  const Viewport vp = IdentityCanvas(128, 128);
  geometry::Ring outer = {{8, 8}, {120, 8}, {120, 120}, {8, 120}};
  geometry::Ring hole = {{40, 40}, {40, 88}, {88, 88}, {88, 40}};
  const geometry::Polygon polygon(outer, {hole});

  std::vector<std::uint64_t> oracle;
  ASSERT_TRUE(RasterizePolygonTriangles(vp, polygon, [&](int x, int y) {
    oracle.push_back(PixelKey(x, y));
  }));
  std::sort(oracle.begin(), oracle.end());
  ASSERT_FALSE(oracle.empty());
  // No pixel of the hole interior may be covered.
  EXPECT_TRUE(std::find(oracle.begin(), oracle.end(), PixelKey(64, 64)) ==
              oracle.end());

  std::vector<std::uint64_t> scanline;
  ScanlineFillPolygonPixels(vp, polygon, [&](int x, int y) {
    scanline.push_back(PixelKey(x, y));
  });
  std::sort(scanline.begin(), scanline.end());
  EXPECT_EQ(scanline, oracle);
}

// ---------------------------------------------------------------------------
// Morton-ordered splats are bit-identical to row-ordered splats.
// ---------------------------------------------------------------------------

template <typename T>
void ExpectBuffersBitEqual(const Buffer2D<T>& a, const Buffer2D<T>& b) {
  ASSERT_EQ(a.data().size(), b.data().size());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    using Bits = std::conditional_t<sizeof(T) == 8, std::uint64_t,
                                    std::uint32_t>;
    EXPECT_EQ(std::bit_cast<Bits>(a.data()[i]),
              std::bit_cast<Bits>(b.data()[i]))
        << "pixel " << i;
  }
}

// Blends `weight(k)` into the pixel of position k, skipping off-canvas
// positions: the splat of points whose pixel indices were computed first.
template <typename T, typename WeightFn>
void ScatterIndexed(const std::vector<std::uint32_t>& indices, BlendOp op,
                    WeightFn&& weight, Buffer2D<T>& target) {
  for (std::size_t k = 0; k < indices.size(); ++k) {
    if (indices[k] == kInvalidPixel) continue;
    ApplyBlend(op, target.data()[indices[k]], static_cast<T>(weight(k)));
  }
}

TEST(MortonSplat, PerPixelAggregatesBitIdenticalPerBlendOp) {
  const Viewport vp = IdentityCanvas(64, 64);
  Rng rng(0x2024);
  const std::size_t n = 20000;
  std::vector<float> xs(n);
  std::vector<float> ys(n);
  std::vector<float> weights(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = static_cast<float>(rng.NextDouble(-2.0, 66.0));
    ys[i] = static_cast<float>(rng.NextDouble(-2.0, 66.0));
    weights[i] = static_cast<float>(rng.NextDouble(-10.0, 10.0));
  }
  const MortonSplatOrder order =
      MortonSplatOrder::Build(vp, xs.data(), ys.data(), n);
  ASSERT_TRUE(order.enabled());
  ASSERT_EQ(order.size(), n);
  std::vector<std::uint32_t> indices(n);
  ComputeSplatIndices(vp, order.xs().data(), order.ys().data(), n,
                      indices.data());

  {  // kAdd, double targets: the order-sensitive case.
    Buffer2D<double> row_order(64, 64, 0.0);
    SplatPoints(vp, xs.data(), ys.data(), n, BlendOp::kAdd,
                [&](std::size_t i) { return static_cast<double>(weights[i]); },
                row_order);
    Buffer2D<double> morton(64, 64, 0.0);
    ScatterIndexed(indices, BlendOp::kAdd,
                   [&](std::size_t k) {
                     return static_cast<double>(weights[order.ids()[k]]);
                   },
                   morton);
    ExpectBuffersBitEqual(row_order, morton);
  }
  for (const BlendOp op : {BlendOp::kMin, BlendOp::kMax}) {
    const float identity = op == BlendOp::kMin
                               ? std::numeric_limits<float>::infinity()
                               : -std::numeric_limits<float>::infinity();
    Buffer2D<float> row_order(64, 64, identity);
    SplatPoints(vp, xs.data(), ys.data(), n, op,
                [&](std::size_t i) { return weights[i]; }, row_order);
    Buffer2D<float> morton(64, 64, identity);
    ScatterIndexed(indices, op,
                   [&](std::size_t k) { return weights[order.ids()[k]]; },
                   morton);
    ExpectBuffersBitEqual(row_order, morton);
  }
}

}  // namespace
}  // namespace urbane::raster
