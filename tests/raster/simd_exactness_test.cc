// Pixel-exactness fuzz suite for the tiled SIMD rasterizer substrate.
//
// The substrate's contract is bit-identity, not approximation: every kernel
// table (scalar/SSE2/AVX2) computes the same function, the tiled triangle
// walk emits the same pixel set as the double-precision oracle on lattice
// inputs, and a Morton-ordered splat reproduces the row-ordered splat's
// per-pixel values bit for bit. These tests fuzz each claim directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "geometry/triangulate.h"
#include "raster/buffer.h"
#include "raster/kernels.h"
#include "raster/morton.h"
#include "raster/point_splat.h"
#include "raster/rasterizer.h"
#include "raster/simd.h"
#include "raster/tile_raster.h"
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

/// Canvas whose world->pixel map is the identity (pixel_w == pixel_h == 1),
/// so world coordinates of the form k/65536 land exactly on the snap
/// lattice and the double oracle is exact.
Viewport LatticeCanvas(int width, int height) {
  return Viewport(geometry::BoundingBox(0.0, 0.0, width, height), width,
                  height);
}

double LatticeCoord(Rng& rng, int lo, int hi) {
  const std::int64_t sub =
      static_cast<std::int64_t>(rng.NextUint64(
          static_cast<std::uint64_t>(hi - lo) * 65536)) +
      static_cast<std::int64_t>(lo) * 65536;
  return static_cast<double>(sub) / 65536.0;
}

geometry::Triangle RandomLatticeTriangle(Rng& rng, int size) {
  const int margin = size / 4;
  geometry::Triangle tri;
  tri.a = {LatticeCoord(rng, -margin, size + margin),
           LatticeCoord(rng, -margin, size + margin)};
  tri.b = {LatticeCoord(rng, -margin, size + margin),
           LatticeCoord(rng, -margin, size + margin)};
  tri.c = {LatticeCoord(rng, -margin, size + margin),
           LatticeCoord(rng, -margin, size + margin)};
  return tri;
}

std::uint64_t PixelKey(int x, int y) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(y)) << 32) |
         static_cast<std::uint32_t>(x);
}

std::vector<std::uint64_t> OraclePixels(const Viewport& vp,
                                        const geometry::Triangle& tri) {
  std::vector<std::uint64_t> pixels;
  RasterizeTriangle(vp, tri,
                    [&](int x, int y) { pixels.push_back(PixelKey(x, y)); });
  std::sort(pixels.begin(), pixels.end());
  return pixels;
}

std::vector<std::uint64_t> TiledPixels(const Viewport& vp,
                                       const geometry::Triangle& tri,
                                       SimdLevel level) {
  std::vector<std::uint64_t> pixels;
  TiledRasterizeTriangle(vp, tri, KernelsForLevel(level),
                         [&](int y, int x_begin, int x_end) {
                           for (int x = x_begin; x < x_end; ++x) {
                             pixels.push_back(PixelKey(x, y));
                           }
                         });
  std::sort(pixels.begin(), pixels.end());
  return pixels;
}

// ---------------------------------------------------------------------------
// Kernel tables agree bit-for-bit on random inputs.
// ---------------------------------------------------------------------------

TEST(SimdKernels, PixelIndicesAgreeAcrossLevels) {
  const Viewport vp = LatticeCanvas(128, 96);
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

TEST(SimdKernels, CoverageMasksAgreeAcrossLevels) {
  Rng rng(0x5EED);
  for (int round = 0; round < 400; ++round) {
    EdgeRowSetup row;
    for (int k = 0; k < 3; ++k) {
      row.e[k] = static_cast<std::int64_t>(rng.NextUint64()) >> 20;
      row.dx[k] = static_cast<std::int64_t>(rng.NextUint64()) >> 28;
    }
    const int n = 1 + static_cast<int>(rng.NextUint64(64));
    const std::uint64_t reference =
        kScalarRasterKernels.edge_coverage_mask(row, n);
    for (const SimdLevel level : AvailableLevels()) {
      EXPECT_EQ(KernelsForLevel(level).edge_coverage_mask(row, n), reference)
          << SimdLevelName(level) << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Tiled triangle walk == double-precision oracle on lattice inputs.
// ---------------------------------------------------------------------------

TEST(TiledRasterizer, RandomLatticeTrianglesMatchOracle) {
  const Viewport vp = LatticeCanvas(128, 128);
  Rng rng(0xF1E1D);
  for (int round = 0; round < 200; ++round) {
    const geometry::Triangle tri = RandomLatticeTriangle(rng, 128);
    const std::vector<std::uint64_t> oracle = OraclePixels(vp, tri);
    for (const SimdLevel level : AvailableLevels()) {
      EXPECT_EQ(TiledPixels(vp, tri, level), oracle)
          << SimdLevelName(level) << " round=" << round;
    }
  }
}

TEST(TiledRasterizer, SliverTrianglesMatchOracle) {
  const Viewport vp = LatticeCanvas(128, 128);
  Rng rng(0x511FE2);
  for (int round = 0; round < 200; ++round) {
    // Nearly-degenerate: a long thin wedge whose apex offset is a handful
    // of subpixel steps, the regime where incremental-evaluation drift
    // would flip pixels.
    geometry::Triangle tri;
    tri.a = {LatticeCoord(rng, 0, 128), LatticeCoord(rng, 0, 128)};
    const double len = rng.NextDouble(10.0, 100.0);
    const std::int64_t thin = 1 + static_cast<std::int64_t>(rng.NextUint64(64));
    tri.b = {tri.a.x + std::floor(len * 65536.0) / 65536.0,
             tri.a.y + static_cast<double>(thin) / 65536.0};
    tri.c = {tri.a.x + std::floor(len * 0.5 * 65536.0) / 65536.0, tri.a.y};
    const std::vector<std::uint64_t> oracle = OraclePixels(vp, tri);
    for (const SimdLevel level : AvailableLevels()) {
      EXPECT_EQ(TiledPixels(vp, tri, level), oracle)
          << SimdLevelName(level) << " round=" << round;
    }
  }
}

TEST(TiledRasterizer, SharedEdgePairsCoverEachPixelOnce) {
  const Viewport vp = LatticeCanvas(128, 128);
  Rng rng(0xED6E);
  for (int round = 0; round < 200; ++round) {
    // Two triangles sharing edge (p, q): every pixel near the shared edge
    // must land in exactly one of them (the half-open tie rule), at every
    // SIMD level, exactly as in the oracle.
    const geometry::Vec2 p = {LatticeCoord(rng, 10, 118),
                              LatticeCoord(rng, 10, 118)};
    const geometry::Vec2 q = {LatticeCoord(rng, 10, 118),
                              LatticeCoord(rng, 10, 118)};
    const geometry::Vec2 r1 = {LatticeCoord(rng, 0, 128),
                               LatticeCoord(rng, 0, 128)};
    const geometry::Vec2 r2 = {p.x + q.x - r1.x, p.y + q.y - r1.y};
    const geometry::Triangle t1 = {p, q, r1};
    const geometry::Triangle t2 = {q, p, r2};

    std::vector<std::uint64_t> oracle = OraclePixels(vp, t1);
    const std::vector<std::uint64_t> oracle2 = OraclePixels(vp, t2);
    oracle.insert(oracle.end(), oracle2.begin(), oracle2.end());
    std::sort(oracle.begin(), oracle.end());
    // The oracle itself must not double-cover along the shared edge.
    ASSERT_TRUE(std::adjacent_find(oracle.begin(), oracle.end()) ==
                oracle.end())
        << "oracle double-covered a pixel, round=" << round;

    for (const SimdLevel level : AvailableLevels()) {
      std::vector<std::uint64_t> tiled = TiledPixels(vp, t1, level);
      const std::vector<std::uint64_t> tiled2 = TiledPixels(vp, t2, level);
      tiled.insert(tiled.end(), tiled2.begin(), tiled2.end());
      std::sort(tiled.begin(), tiled.end());
      EXPECT_EQ(tiled, oracle) << SimdLevelName(level) << " round=" << round;
    }
  }
}

TEST(TiledRasterizer, PolygonWithHoleMatchesTriangleOracle) {
  const Viewport vp = LatticeCanvas(128, 128);
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

  const auto triangles = geometry::TriangulatePolygon(polygon);
  ASSERT_TRUE(triangles.ok());
  for (const SimdLevel level : AvailableLevels()) {
    std::vector<std::uint64_t> tiled;
    for (const geometry::Triangle& tri : triangles.value()) {
      const std::vector<std::uint64_t> pixels = TiledPixels(vp, tri, level);
      tiled.insert(tiled.end(), pixels.begin(), pixels.end());
    }
    std::sort(tiled.begin(), tiled.end());
    EXPECT_EQ(tiled, oracle) << SimdLevelName(level);
  }
}

TEST(TiledRasterizer, LevelsAgreeOnArbitraryNonLatticeInputs) {
  // Off the lattice the snapped pixel set may differ from the double
  // oracle, but it must still be identical at every SIMD level — the
  // emitted spans depend only on the snapped geometry.
  const Viewport vp =
      Viewport(geometry::BoundingBox(0.0, 0.0, 97.3, 61.7), 128, 81);
  Rng rng(0xAB1E);
  for (int round = 0; round < 200; ++round) {
    geometry::Triangle tri;
    tri.a = {rng.NextDouble(-10.0, 107.0), rng.NextDouble(-10.0, 70.0)};
    tri.b = {rng.NextDouble(-10.0, 107.0), rng.NextDouble(-10.0, 70.0)};
    tri.c = {rng.NextDouble(-10.0, 107.0), rng.NextDouble(-10.0, 70.0)};
    const std::vector<std::uint64_t> reference =
        TiledPixels(vp, tri, SimdLevel::kOff);
    for (const SimdLevel level : AvailableLevels()) {
      EXPECT_EQ(TiledPixels(vp, tri, level), reference)
          << SimdLevelName(level) << " round=" << round;
    }
  }
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

TEST(MortonSplat, PerPixelAggregatesBitIdenticalPerBlendOp) {
  const Viewport vp = LatticeCanvas(64, 64);
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
    SplatIndexed(indices.data(), n, BlendOp::kAdd,
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
    SplatIndexed(indices.data(), n, op,
                 [&](std::size_t k) { return weights[order.ids()[k]]; },
                 morton);
    ExpectBuffersBitEqual(row_order, morton);
  }
}

}  // namespace
}  // namespace urbane::raster
