// MB — google-benchmark microbenchmarks of the substrate stages that the
// executors compose: point-in-polygon tests, scanline vs triangle polygon
// fill (the pipeline ablation), point splatting (z-order-sorted vs shuffled
// input — memory-locality ablation), grid-index probes, boundary
// rasterization, and the SIMD kernel tables — splat, sweep and the filter's
// predicate kernels (scalar vs sse2 vs avx2 ns/fragment, one fragment per
// pixel or row). On an unfiltered run the kernel workloads additionally
// emit a harness ResultTable sidecar (micro_substrate_kernels.json when
// URBANE_BENCH_CSV is set) so tools/bench_report tracks kernel regressions
// in BENCH_TRAJECTORY.json without a full fig4/fig8 run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/harness.h"
#include "data/region_generator.h"
#include "geometry/polygon.h"
#include "geometry/triangulate.h"
#include "index/grid_index.h"
#include "obs/metrics.h"
#include "raster/kernels.h"
#include "raster/morton.h"
#include "raster/point_splat.h"
#include "raster/rasterizer.h"
#include "raster/simd.h"
#include "testing/test_worlds.h"
#include "util/random.h"

namespace urbane {
namespace {

geometry::Polygon MakePolygon(std::size_t vertices) {
  Rng rng(42);
  return testing::RandomStarPolygon(rng, {50.0, 50.0}, 35.0, vertices);
}

void BM_PointInPolygon(benchmark::State& state) {
  const geometry::Polygon poly =
      MakePolygon(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  std::vector<geometry::Vec2> probes(1024);
  for (auto& p : probes) {
    p = {rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(poly.Contains(probes[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointInPolygon)->Arg(8)->Arg(64)->Arg(512)->Arg(2048);

void BM_ScanlineFill(benchmark::State& state) {
  const geometry::Polygon poly = MakePolygon(64);
  const raster::Viewport vp(geometry::BoundingBox(0, 0, 100, 100),
                            static_cast<int>(state.range(0)),
                            static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::size_t pixels = 0;
    raster::ScanlineFillPolygon(vp, poly, [&](int, int x0, int x1) {
      pixels += static_cast<std::size_t>(x1 - x0);
    });
    benchmark::DoNotOptimize(pixels);
  }
}
BENCHMARK(BM_ScanlineFill)->Arg(256)->Arg(1024)->Arg(4096);

void BM_TriangleFill(benchmark::State& state) {
  const geometry::Polygon poly = MakePolygon(64);
  const auto triangles = geometry::TriangulatePolygon(poly);
  const raster::Viewport vp(geometry::BoundingBox(0, 0, 100, 100),
                            static_cast<int>(state.range(0)),
                            static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::size_t pixels = 0;
    for (const auto& tri : *triangles) {
      raster::RasterizeTriangle(vp, tri, [&](int, int) { ++pixels; });
    }
    benchmark::DoNotOptimize(pixels);
  }
}
BENCHMARK(BM_TriangleFill)->Arg(256)->Arg(1024)->Arg(4096);

void BM_PointSplat(benchmark::State& state) {
  const bool zorder_sorted = state.range(1) != 0;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  data::PointTable points = testing::MakeUniformPoints(n, 7);
  std::vector<float> xs(points.xs(), points.xs() + n);
  std::vector<float> ys(points.ys(), points.ys() + n);
  const raster::Viewport vp(geometry::BoundingBox(0, 0, 100.001, 100.001),
                            1024, 1024);
  if (zorder_sorted) {
    // The executors' own splat order: stable sort by the Morton code of
    // each point's target pixel.
    const raster::MortonSplatOrder order =
        raster::MortonSplatOrder::Build(vp, xs.data(), ys.data(), n);
    xs = order.xs();
    ys = order.ys();
  }
  raster::Buffer2D<std::uint32_t> counts(1024, 1024, 0);
  for (auto _ : state) {
    counts.Fill(0);
    benchmark::DoNotOptimize(raster::SplatPoints(
        vp, xs.data(), ys.data(), n, raster::BlendOp::kAdd,
        [](std::size_t) { return 1u; }, counts));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
  state.SetLabel(zorder_sorted ? "zorder-sorted" : "shuffled");
}
BENCHMARK(BM_PointSplat)
    ->Args({1 << 18, 0})
    ->Args({1 << 18, 1})
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 1});

void BM_GridProbe(benchmark::State& state) {
  const data::PointTable points = testing::MakeUniformPoints(200000, 9);
  const auto grid = index::GridIndex::BuildAuto(
      points.xs(), points.ys(), points.size(),
      geometry::BoundingBox(0, 0, 100.001, 100.001),
      static_cast<double>(state.range(0)));
  const geometry::Polygon poly = MakePolygon(64);
  for (auto _ : state) {
    std::size_t candidates = 0;
    grid->ClassifyCells(
        poly,
        [&](int cx, int cy) { candidates += grid->CellSize(cx, cy); },
        [&](int cx, int cy) { candidates += grid->CellSize(cx, cy); });
    benchmark::DoNotOptimize(candidates);
  }
}
BENCHMARK(BM_GridProbe)->Arg(16)->Arg(64)->Arg(256);

void BM_BoundaryRasterize(benchmark::State& state) {
  const geometry::Polygon poly =
      MakePolygon(static_cast<std::size_t>(state.range(0)));
  const raster::Viewport vp(geometry::BoundingBox(0, 0, 100, 100), 1024,
                            1024);
  for (auto _ : state) {
    std::size_t cells = 0;
    raster::RasterizePolygonBoundary(vp, poly, [&](int, int) { ++cells; });
    benchmark::DoNotOptimize(cells);
  }
}
BENCHMARK(BM_BoundaryRasterize)->Arg(16)->Arg(128)->Arg(1024);

void BM_Triangulate(benchmark::State& state) {
  const geometry::Polygon poly =
      MakePolygon(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(geometry::TriangulatePolygon(poly));
  }
}
BENCHMARK(BM_Triangulate)->Arg(16)->Arg(64)->Arg(256);

// ---------------------------------------------------------------------------
// SIMD kernels. One workload per RasterKernels entry point; each
// runs at every URBANE_SIMD level available on this CPU. Registered twice:
// as BM_SimdKernel below for interactive runs, and through
// EmitKernelSidecar() (called from main after an unfiltered benchmark pass)
// as a harness ResultTable so the numbers land in the JSON sidecar
// bench_report aggregates.

std::vector<raster::SimdLevel> AvailableKernelLevels() {
  std::vector<raster::SimdLevel> levels = {raster::SimdLevel::kOff};
  const int max = static_cast<int>(raster::CpuMaxSimdLevel());
  if (max >= static_cast<int>(raster::SimdLevel::kSse2)) {
    levels.push_back(raster::SimdLevel::kSse2);
  }
  if (max >= static_cast<int>(raster::SimdLevel::kAvx2)) {
    levels.push_back(raster::SimdLevel::kAvx2);
  }
  return levels;
}

struct KernelWorkload {
  const char* name;
  std::size_t fragments;  // pixels or rows one run() pushes through the kernel
  std::function<void(const raster::RasterKernels&)> run;
};

std::vector<KernelWorkload> MakeKernelWorkloads() {
  std::vector<KernelWorkload> workloads;

  // Splat pass 1: point -> linear framebuffer index, 1M uniform points.
  {
    const std::size_t n = 1 << 20;
    const data::PointTable points = testing::MakeUniformPoints(n, 11);
    auto xs = std::make_shared<std::vector<float>>(points.xs(),
                                                   points.xs() + n);
    auto ys = std::make_shared<std::vector<float>>(points.ys(),
                                                   points.ys() + n);
    auto out = std::make_shared<std::vector<std::uint32_t>>(n);
    const raster::Viewport vp(geometry::BoundingBox(0, 0, 100.001, 100.001),
                              1024, 1024);
    const raster::SplatGeometry geom = raster::SplatGeometry::From(vp);
    workloads.push_back(
        {"splat_pixel_indices", n,
         [=](const raster::RasterKernels& k) {
           benchmark::DoNotOptimize(k.compute_pixel_indices(
               geom, xs->data(), ys->data(), xs->size(), out->data()));
         }});
  }

  // Sweep COUNT fast path: exact u64 sum over dense count rows.
  {
    const std::size_t len = 1 << 16;
    const int rounds = 64;
    auto row = std::make_shared<std::vector<std::uint32_t>>(len);
    Rng rng(3);
    for (auto& v : *row) {
      v = static_cast<std::uint32_t>(rng.NextUint64(5));
    }
    workloads.push_back(
        {"sweep_span_sum", len * rounds,
         [=](const raster::RasterKernels& k) {
           std::uint64_t total = 0;
           for (int r = 0; r < rounds; ++r) {
             total += k.sum_span_u32(row->data(), row->size());
           }
           benchmark::DoNotOptimize(total);
         }});
  }

  // Sweep sparse path: gather nonzero pixel columns (~12% occupancy).
  {
    const std::size_t len = 1 << 16;
    const int rounds = 64;
    auto row = std::make_shared<std::vector<std::uint32_t>>(len, 0u);
    Rng rng(4);
    for (auto& v : *row) {
      v = rng.NextUint64(8) == 0
              ? static_cast<std::uint32_t>(1 + rng.NextUint64(4))
              : 0u;
    }
    auto out = std::make_shared<std::vector<std::uint32_t>>(len);
    workloads.push_back(
        {"sweep_gather_nonzero", len * rounds,
         [=](const raster::RasterKernels& k) {
           std::size_t hits = 0;
           for (int r = 0; r < rounds; ++r) {
             hits += k.gather_nonzero_u32(row->data(), row->size(),
                                          out->data());
           }
           benchmark::DoNotOptimize(hits);
         }});
  }

  // Filter predicates over 1M rows with `selective`-shaped bounds (a 12 h
  // brush over a month, a 0.3-mile trip-distance window, a centre-quarter
  // viewport). Each run ANDs into the same mask; the kernels are
  // branch-free, so the work does not depend on what the mask holds.
  {
    const std::size_t n = 1 << 20;
    constexpr std::int64_t kMonthSeconds = 30 * 86400;
    auto ts = std::make_shared<std::vector<std::int64_t>>(n);
    auto distance = std::make_shared<std::vector<float>>(n);
    Rng rng(5);
    for (std::size_t i = 0; i < n; ++i) {
      (*ts)[i] = rng.NextInt(0, kMonthSeconds - 1);
      (*distance)[i] =
          static_cast<float>(std::exp(rng.NextGaussian(0.6, 0.7)));
    }
    const data::PointTable points = testing::MakeUniformPoints(n, 12);
    auto xs = std::make_shared<std::vector<float>>(points.xs(),
                                                   points.xs() + n);
    auto ys = std::make_shared<std::vector<float>>(points.ys(),
                                                   points.ys() + n);
    auto mask = std::make_shared<std::vector<std::uint8_t>>(n, 1);
    const std::int64_t brush_begin = 9 * 86400 + 6 * 3600;
    const std::int64_t brush_end = brush_begin + 12 * 3600;
    workloads.push_back(
        {"filter_time_range", n, [=](const raster::RasterKernels& k) {
           k.and_time_range(ts->data(), n, brush_begin, brush_end,
                            mask->data());
           benchmark::DoNotOptimize(mask->data());
           benchmark::ClobberMemory();
         }});
    workloads.push_back(
        {"filter_float_range", n, [=](const raster::RasterKernels& k) {
           k.and_float_range(distance->data(), n, 1.8f, 2.1f, mask->data());
           benchmark::DoNotOptimize(mask->data());
           benchmark::ClobberMemory();
         }});
    const geometry::BoundingBox window(25.0, 25.0, 75.0, 75.0);
    workloads.push_back(
        {"filter_window", n, [=](const raster::RasterKernels& k) {
           k.and_window(window, xs->data(), ys->data(), n, mask->data());
           benchmark::DoNotOptimize(mask->data());
           benchmark::ClobberMemory();
         }});
  }

  return workloads;
}

const std::vector<KernelWorkload>& KernelWorkloads() {
  static const std::vector<KernelWorkload> workloads = MakeKernelWorkloads();
  return workloads;
}

void BM_SimdKernel(benchmark::State& state) {
  // at(): an argument list longer than the workload list throws rather
  // than reading past it.
  const KernelWorkload& w =
      KernelWorkloads().at(static_cast<std::size_t>(state.range(0)));
  const auto level = static_cast<raster::SimdLevel>(state.range(1));
  if (static_cast<int>(level) >
      static_cast<int>(raster::CpuMaxSimdLevel())) {
    state.SkipWithError("SIMD level unavailable on this CPU");
    return;
  }
  const raster::RasterKernels& kernels = raster::KernelsForLevel(level);
  for (auto _ : state) {
    w.run(kernels);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.fragments));
  state.SetLabel(std::string(w.name) + "/" + raster::SimdLevelName(level));
}
BENCHMARK(BM_SimdKernel)->ArgsProduct({{0, 1, 2, 3, 4, 5}, {0, 1, 2}});

}  // namespace

// Harness-table pass over the same workloads: ns/fragment per kernel per
// level, plus a `micro.<kernel>.<level>.ns_per_fragment` histogram sample so
// bench_report's baseline comparison covers the kernels.
void EmitKernelSidecar() {
  bench::PrintHeader("micro_substrate_kernels",
                     "splat/sweep/filter kernel ns-per-fragment across "
                     "URBANE_SIMD levels (scalar oracle = off)");
  bench::ResultTable table("micro_substrate_kernels",
                           {"kernel", "level", "fragments", "ns_per_fragment",
                            "speedup_vs_scalar"});
  for (const KernelWorkload& w : KernelWorkloads()) {
    double scalar_ns = 0.0;
    for (const raster::SimdLevel level : AvailableKernelLevels()) {
      const raster::RasterKernels& kernels = raster::KernelsForLevel(level);
      const double seconds = bench::MeasureSeconds([&] { w.run(kernels); });
      const double ns = seconds * 1e9 / static_cast<double>(w.fragments);
      if (level == raster::SimdLevel::kOff) scalar_ns = ns;
      obs::MetricsRegistry::Global()
          .GetHistogram(std::string("micro.") + w.name + "." +
                        raster::SimdLevelName(level) + ".ns_per_fragment")
          .Observe(ns);
      table.AddRow({w.name, raster::SimdLevelName(level),
                    bench::ResultTable::Cell("%zu", w.fragments),
                    bench::ResultTable::Cell("%.3f", ns),
                    bench::ResultTable::Cell("%.2fx", scalar_ns / ns)});
    }
  }
  table.Finish();
}

}  // namespace urbane

int main(int argc, char** argv) {
  // A filtered run (e.g. --benchmark_filter=BM_SimdKernel) asked for some
  // benchmarks only, so it skips the sidecar pass. Initialize strips the
  // flag from argv, so look before it runs.
  const bool filtered = std::any_of(argv + 1, argv + argc, [](const char* arg) {
    return std::string_view(arg).starts_with("--benchmark_filter");
  });
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!filtered) {
    urbane::EmitKernelSidecar();
  }
  return 0;
}
