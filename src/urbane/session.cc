#include "urbane/session.h"

#include <algorithm>
#include <cmath>

#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/latency.h"
#include "util/random.h"

namespace urbane::app {

const char* InteractionKindToString(InteractionKind kind) {
  switch (kind) {
    case InteractionKind::kTimeBrushMove:
      return "brush-move";
    case InteractionKind::kTimeBrushResize:
      return "brush-resize";
    case InteractionKind::kFilterTighten:
      return "filter-tighten";
    case InteractionKind::kFilterRelax:
      return "filter-relax";
    case InteractionKind::kAggregateSwitch:
      return "agg-switch";
    case InteractionKind::kPanZoom:
      return "pan-zoom";
  }
  return "unknown";
}

SessionSummary SummarizeFrames(const std::vector<FrameRecord>& frames,
                               double interactive_budget_seconds) {
  SessionSummary summary;
  summary.frames = frames.size();
  LatencyRecorder latencies;
  for (const FrameRecord& frame : frames) {
    latencies.Record(frame.latency_seconds);
    summary.total_seconds += frame.latency_seconds;
    if (frame.latency_seconds <= interactive_budget_seconds) {
      ++summary.interactive_frames;
    }
    if (frame.cache_hit) {
      ++summary.cache_hit_frames;
    }
  }
  const LatencySummary stats = latencies.Summarize();
  summary.p50_seconds = stats.p50;
  summary.p95_seconds = stats.p95;
  summary.max_seconds = stats.max;
  return summary;
}

std::vector<InteractionEvent> GenerateInteractionTrace(std::size_t count,
                                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<InteractionEvent> trace;
  trace.reserve(count);
  // Realistic mix: brushing dominates, aggregate switches are rare.
  const struct {
    InteractionKind kind;
    double weight;
  } mix[] = {
      {InteractionKind::kTimeBrushMove, 0.38},
      {InteractionKind::kTimeBrushResize, 0.14},
      {InteractionKind::kFilterTighten, 0.14},
      {InteractionKind::kFilterRelax, 0.08},
      {InteractionKind::kAggregateSwitch, 0.06},
      {InteractionKind::kPanZoom, 0.20},
  };
  double total = 0.0;
  for (const auto& m : mix) total += m.weight;
  for (std::size_t i = 0; i < count; ++i) {
    double u = rng.NextDouble() * total;
    InteractionKind kind = mix[0].kind;
    for (const auto& m : mix) {
      if (u < m.weight) {
        kind = m.kind;
        break;
      }
      u -= m.weight;
    }
    trace.push_back({kind, rng.NextDouble()});
  }
  return trace;
}

InteractionSession::InteractionSession(core::SpatialAggregation& engine,
                                       std::string attribute,
                                       std::int64_t t_min, std::int64_t t_max)
    : engine_(engine),
      attribute_(std::move(attribute)),
      t_min_(t_min),
      t_max_(std::max(t_max, t_min + 1)) {}

StatusOr<std::vector<FrameRecord>> InteractionSession::Replay(
    const std::vector<InteractionEvent>& trace,
    core::ExecutionMethod method) {
  // Evolving query state.
  const double span = static_cast<double>(t_max_ - t_min_);
  double window_start = 0.0;   // fraction of span
  double window_length = 0.25; // fraction of span
  bool has_attr_filter = false;
  double filter_lo_q = 0.0;    // quantile-ish fractions of the value range
  double filter_hi_q = 1.0;
  int aggregate_cycle = 0;

  // Attribute value range for filter construction.
  const float* attr_col = engine_.points().AttributeByName(attribute_);
  if (attr_col == nullptr) {
    return Status::InvalidArgument("session attribute not in table: " +
                                   attribute_);
  }
  const std::size_t attr_n = engine_.points().size();
  float attr_min = 0.0f;
  float attr_max = 1.0f;
  if (attr_n > 0) {
    attr_min = *std::min_element(attr_col, attr_col + attr_n);
    attr_max = *std::max_element(attr_col, attr_col + attr_n);
  }

  std::vector<FrameRecord> frames;
  frames.reserve(trace.size());
  for (const InteractionEvent& event : trace) {
    switch (event.kind) {
      case InteractionKind::kTimeBrushMove:
        window_start = std::clamp(
            window_start + (event.magnitude - 0.5) * 0.3, 0.0,
            1.0 - window_length);
        break;
      case InteractionKind::kTimeBrushResize:
        window_length =
            std::clamp(0.05 + event.magnitude * 0.45, 0.05, 0.5);
        window_start = std::min(window_start, 1.0 - window_length);
        break;
      case InteractionKind::kFilterTighten:
        has_attr_filter = true;
        filter_lo_q = event.magnitude * 0.4;
        filter_hi_q = 1.0 - (1.0 - event.magnitude) * 0.3;
        if (filter_hi_q <= filter_lo_q) {
          filter_hi_q = filter_lo_q + 0.05;
        }
        break;
      case InteractionKind::kFilterRelax:
        has_attr_filter = false;
        break;
      case InteractionKind::kAggregateSwitch:
        aggregate_cycle = (aggregate_cycle + 1) % 3;
        break;
      case InteractionKind::kPanZoom:
        // Camera-only: Urbane still refreshes the aggregation for the new
        // frame, so the query re-runs unchanged.
        break;
    }

    core::AggregationQuery query;
    switch (aggregate_cycle) {
      case 0:
        query.aggregate = core::AggregateSpec::Count();
        break;
      case 1:
        query.aggregate = core::AggregateSpec::Avg(attribute_);
        break;
      default:
        query.aggregate = core::AggregateSpec::Sum(attribute_);
        break;
    }
    const std::int64_t t0 =
        t_min_ + static_cast<std::int64_t>(span * window_start);
    const std::int64_t t1 =
        t_min_ +
        static_cast<std::int64_t>(span * (window_start + window_length));
    query.filter.WithTime(t0, std::max(t1, t0 + 1));
    if (has_attr_filter) {
      const double lo = attr_min + (attr_max - attr_min) * filter_lo_q;
      const double hi = attr_min + (attr_max - attr_min) * filter_hi_q;
      query.filter.WithRange(attribute_, lo, hi);
    }
    query.profile = profile_;

    const std::size_t hits_before = engine_.result_cache_hits();
    WallTimer timer;
    URBANE_ASSIGN_OR_RETURN(core::QueryResult result,
                            engine_.Execute(query, method));
    FrameRecord frame;
    frame.kind = event.kind;
    frame.latency_seconds = timer.ElapsedSeconds();
    frame.cache_hit = engine_.result_cache_hits() > hits_before;
    double checksum = 0.0;
    std::uint64_t matched = 0;
    for (std::size_t r = 0; r < result.size(); ++r) {
      if (std::isfinite(result.values[r])) {
        checksum += result.values[r];
      }
      matched += result.counts[r];
    }
    frame.checksum = checksum;
    frame.selectivity =
        engine_.points().size() == 0
            ? 0.0
            : static_cast<double>(matched) /
                  static_cast<double>(engine_.points().size());
    if (obs::MetricsEnabled()) {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      registry.GetCounter("session.frames").Add(1);
      registry.GetHistogram("session.frame_seconds")
          .Observe(frame.latency_seconds);
      if (frame.cache_hit) {
        registry.GetCounter("session.cache_hit_frames").Add(1);
      }
    }
    if (obs::JournalEnabled()) {
      obs::Event frame_event;
      frame_event.kind = obs::EventKind::kSessionFrame;
      frame_event.detail = static_cast<std::uint8_t>(event.kind);
      frame_event.value = frame.latency_seconds;
      if (frame.cache_hit) frame_event.flags |= obs::kEventCacheHit;
      obs::EmitEvent(frame_event);
    }
    frames.push_back(frame);
  }
  return frames;
}

}  // namespace urbane::app
