#include "core/observe.h"

#include <string>

#include "raster/simd.h"

namespace urbane::core {
namespace {

void ObservePass(obs::MetricsRegistry& registry, const std::string& prefix,
                 const char* pass, double seconds) {
  // A pass that did not run (e.g. splat on a scan join) stays absent from
  // the registry rather than polluting histograms with zeros.
  if (seconds > 0.0) {
    registry.GetHistogram(prefix + pass).Observe(seconds);
  }
}

void ObserveCount(obs::MetricsRegistry& registry, const std::string& prefix,
                  const char* counter, std::uint64_t value) {
  if (value > 0) {
    registry.GetCounter(prefix + counter).Add(value);
  }
}

}  // namespace

void PublishExecution(const SpatialAggregationExecutor& executor,
                      const char* metric, std::size_t threads_used,
                      const obs::ProfilePassCosts& costs,
                      obs::QueryProfile* profile) {
  if (profile != nullptr) {
    profile->method = executor.name();
    profile->threads_used = threads_used;
    profile->totals = costs;
  }
  if (!obs::MetricsEnabled()) {
    return;
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const std::string prefix = std::string("exec.") + metric + ".";
  registry.GetCounter(prefix + "queries").Add(1);
  registry.GetHistogram(prefix + "query_seconds").Observe(costs.query_seconds);
  ObservePass(registry, prefix, "filter_seconds", costs.filter_seconds);
  ObservePass(registry, prefix, "splat_seconds", costs.splat_seconds);
  ObservePass(registry, prefix, "sweep_seconds", costs.sweep_seconds);
  ObservePass(registry, prefix, "reduce_seconds", costs.reduce_seconds);
  ObservePass(registry, prefix, "refine_seconds", costs.refine_seconds);
  ObserveCount(registry, prefix, "points_scanned", costs.points_scanned);
  ObserveCount(registry, prefix, "points_bulk", costs.points_bulk);
  ObserveCount(registry, prefix, "pip_tests", costs.pip_tests);
  ObserveCount(registry, prefix, "pixels_touched", costs.pixels_touched);
  ObserveCount(registry, prefix, "boundary_pixels", costs.boundary_pixels);
  ObserveCount(registry, prefix, "raster.tiles", costs.tiles_visited);
  ObserveCount(registry, prefix, "raster.fragments", costs.simd_fragments);
  // Which kernel table the raster executors ran with (0 = scalar,
  // 1 = SSE2, 2 = AVX2) — one global gauge, since the level is
  // process-wide.
  registry.GetGauge("raster.simd_level")
      .Set(static_cast<double>(static_cast<int>(raster::ActiveSimdLevel())));
}

}  // namespace urbane::core
