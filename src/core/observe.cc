#include "core/observe.h"

#include <string>

#include "obs/event_journal.h"
#include "obs/slow_query_log.h"
#include "raster/simd.h"
#include "util/timer.h"

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
  ObserveCount(registry, prefix, "refine_rows", costs.refine_rows);
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

bool QueryUnobserved(const AggregationQuery& query) {
  return !obs::JournalEnabled() && !obs::SlowQueryLog::Global().armed() &&
         !obs::MetricsEnabled() && query.profile == nullptr;
}

std::unique_ptr<obs::QueryProfile> AttachArmedProfile(
    AggregationQuery& query) {
  if (query.profile != nullptr) {
    return nullptr;
  }
  auto profile = std::make_unique<obs::QueryProfile>();
  obs::CurrentTraceContext(&profile->context.trace_hi,
                           &profile->context.trace_lo);
  query.profile = profile.get();
  return profile;
}

StatusOr<QueryResult> ObserveQuery(
    AggregationQuery& query, ExecutionMethod method,
    const std::function<std::uint64_t()>& fingerprint,
    const std::function<StatusOr<QueryResult>(bool* cache_hit)>& run) {
  obs::SlowQueryLog& recorder = obs::SlowQueryLog::Global();
  const bool journal = obs::JournalEnabled();
  const bool armed = recorder.armed();
  const bool metrics = obs::MetricsEnabled();

  // The fingerprint keys journal events and slow-query records to the same
  // identity the result cache uses.
  const std::uint64_t key = journal || armed ? fingerprint() : 0;
  if (journal) {
    obs::Event start;
    start.kind = obs::EventKind::kQueryStart;
    start.method = static_cast<std::uint8_t>(method);
    start.fingerprint = key;
    obs::EmitEvent(start);
  }

  // Armed mode's own profile, dropped unless MaybeRecord captures it.
  const std::unique_ptr<obs::QueryProfile> armed_profile =
      armed ? AttachArmedProfile(query) : nullptr;

  WallTimer timer;
  bool cache_hit = false;
  StatusOr<QueryResult> result = run(&cache_hit);
  const double wall_seconds = timer.ElapsedSeconds();
  if (query.profile != nullptr) {
    query.profile->wall_seconds = wall_seconds;
  }

  if (metrics) {
    // The recorder's p99-multiplier threshold derives from this histogram.
    obs::MetricsRegistry::Global()
        .GetHistogram("query.wall_seconds")
        .Observe(wall_seconds);
  }
  if (journal) {
    obs::Event finish;
    finish.kind = obs::EventKind::kQueryFinish;
    finish.method = static_cast<std::uint8_t>(method);
    finish.fingerprint = key;
    finish.value = wall_seconds;
    if (cache_hit) finish.flags |= obs::kEventCacheHit;
    if (!result.ok()) finish.flags |= obs::kEventError;
    obs::EmitEvent(finish);
    if (!result.ok()) {
      obs::Event error;
      error.kind = obs::EventKind::kError;
      error.method = static_cast<std::uint8_t>(method);
      error.fingerprint = key;
      error.detail = static_cast<std::uint8_t>(result.status().code());
      obs::EmitEvent(error);
    }
  }
  if (armed) {
    recorder.MaybeRecord(key, ExecutionMethodToString(method),
                         query.ToString(), query.profile->planner_explanation,
                         wall_seconds, query.profile);
  }
  return result;
}

}  // namespace urbane::core
