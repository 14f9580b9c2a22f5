#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "urbane/session.h"
#include "util/random.h"

namespace urbane::perfbench {

namespace {

constexpr std::int64_t kMonthHours = kMonthDays * 24;

// Fare slider stops (USD) of the Urbane filter widget.
constexpr double kFareStops[] = {2.5, 5.0, 7.5, 10.0, 12.5, 15.0,
                                 20.0, 25.0, 30.0, 40.0, 50.0, 80.0};
constexpr int kNumFareStops = sizeof(kFareStops) / sizeof(kFareStops[0]);

std::string Aggregate(int cycle) {
  switch (cycle % 3) {
    case 0:
      return "COUNT(*)";
    case 1:
      return "AVG(fare_amount)";
    default:
      return "SUM(fare_amount)";
  }
}

std::string Money(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", value);
  return buffer;
}

// `t IN [begin, end)` for a window given in hours from the month start.
std::string TimeClause(std::int64_t begin_hour, std::int64_t end_hour) {
  return "t IN [" + std::to_string(kMonthStart + begin_hour * kHour) + ", " +
         std::to_string(kMonthStart + end_hour * kHour) + ")";
}

std::string Select(int aggregate_cycle) {
  return "SELECT " + Aggregate(aggregate_cycle) + " FROM " + kPointsName +
         ", " + kRegionsName;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  static const std::pair<const char*, Workload> kNames[] = {
      {"explore", Workload::kExplore},
      {"selective", Workload::kSelective},
      {"saturate", Workload::kSaturate},
      {"ingest_live", Workload::kIngestLive},
  };
  for (const auto& [label, workload] : kNames) {
    if (name == label) {
      *out = workload;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kExplore:
      return "explore";
    case Workload::kSelective:
      return "selective";
    case Workload::kSaturate:
      return "saturate";
    case Workload::kIngestLive:
      return "ingest_live";
  }
  return "unknown";
}

std::string QueryBody(const Frame& frame) {
  return "{\"sql\": \"" + frame.sql + "\", \"method\": \"" + frame.method +
         "\"}";
}

double RepeatShare(const std::vector<Frame>& frames) {
  if (frames.empty()) return 0.0;
  std::set<std::pair<std::string, std::string>> seen;
  std::size_t repeats = 0;
  for (const Frame& frame : frames) {
    if (!seen.emplace(frame.sql, frame.method).second) ++repeats;
  }
  return static_cast<double>(repeats) / static_cast<double>(frames.size());
}

std::vector<Frame> ExploreTrace(std::uint64_t seed, std::size_t count) {
  // The app::GenerateInteractionTrace mix (brush move 38%, resize 14%,
  // filter tighten 14%, relax 8%, aggregate switch 6%, pan 20%), drawn in
  // stratified questions of 21 events: an aggregate switch to the next of
  // COUNT -> AVG -> SUM, then exactly 8 moves, 3 resizes, 3 tightens,
  // 2 relaxes and 4 pans in seeded order. Drawn independently, the AVG
  // share (a second pass on a sharded raster engine) ranged from 22% to
  // 39% between seeds, and a run's CPU per frame by a third with it. For
  // the same reason a question's three resizes draw one length from each
  // third of the 1-15 day range.
  static constexpr app::InteractionKind kQuestion[] = {
      app::InteractionKind::kTimeBrushMove,
      app::InteractionKind::kTimeBrushMove,
      app::InteractionKind::kTimeBrushMove,
      app::InteractionKind::kTimeBrushMove,
      app::InteractionKind::kTimeBrushMove,
      app::InteractionKind::kTimeBrushMove,
      app::InteractionKind::kTimeBrushMove,
      app::InteractionKind::kTimeBrushMove,
      app::InteractionKind::kTimeBrushResize,
      app::InteractionKind::kTimeBrushResize,
      app::InteractionKind::kTimeBrushResize,
      app::InteractionKind::kFilterTighten,
      app::InteractionKind::kFilterTighten,
      app::InteractionKind::kFilterTighten,
      app::InteractionKind::kFilterRelax,
      app::InteractionKind::kFilterRelax,
      app::InteractionKind::kPanZoom,
      app::InteractionKind::kPanZoom,
      app::InteractionKind::kPanZoom,
      app::InteractionKind::kPanZoom,
  };
  Rng rng(seed ^ 0x6578706c6f7265ULL);
  std::int64_t length = 72;  // hours
  std::int64_t start = 24 * rng.NextInt(0, kMonthDays - 4);
  bool filtered = false;
  int fare_lo = 0;
  int fare_hi = kNumFareStops - 1;
  int aggregate_cycle = -1;

  std::vector<Frame> frames;
  frames.reserve(count);
  std::vector<app::InteractionKind> kinds;
  std::vector<int> length_thirds;
  while (frames.size() < count) {
    if (kinds.empty()) {
      kinds.assign(std::begin(kQuestion), std::end(kQuestion));
      for (std::size_t i = kinds.size() - 1; i > 0; --i) {
        std::swap(kinds[i], kinds[rng.NextUint64(i + 1)]);
      }
      kinds.push_back(app::InteractionKind::kAggregateSwitch);  // first
      length_thirds = {0, 1, 2};
      for (std::size_t i = 2; i > 0; --i) {
        std::swap(length_thirds[i], length_thirds[rng.NextUint64(i + 1)]);
      }
    }
    const app::InteractionKind kind = kinds.back();
    kinds.pop_back();
    const double m = rng.NextDouble();
    switch (kind) {
      case app::InteractionKind::kTimeBrushMove:
        start += static_cast<std::int64_t>(std::lround((m - 0.5) * 144.0));
        break;
      case app::InteractionKind::kTimeBrushResize:  // 1-15 days
        length = 24 + static_cast<std::int64_t>(
                          (length_thirds.back() + m) * 337.0 / 3.0);
        length_thirds.pop_back();
        break;
      case app::InteractionKind::kFilterTighten:
        filtered = true;
        fare_lo = static_cast<int>(m * 6.0);
        fare_hi = std::min(kNumFareStops - 1,
                           fare_lo + 2 + static_cast<int>(m * 7.0));
        break;
      case app::InteractionKind::kFilterRelax:
        filtered = false;
        break;
      case app::InteractionKind::kAggregateSwitch:
        aggregate_cycle = (aggregate_cycle + 1) % 3;
        break;
      case app::InteractionKind::kPanZoom:
        break;  // the view moved; Urbane re-issues the current query
    }
    length = std::clamp<std::int64_t>(length, 24, 15 * 24);
    start = std::clamp<std::int64_t>(start, 0, kMonthHours - length);
    std::string sql = Select(aggregate_cycle) + " WHERE " +
                      TimeClause(start, start + length);
    if (filtered) {
      sql += " AND fare_amount IN [" + Money(kFareStops[fare_lo]) + ", " +
             Money(kFareStops[fare_hi]) + "]";
    }
    frames.push_back({std::move(sql), "raster"});
  }
  return frames;
}

std::vector<Frame> SelectiveTrace(std::uint64_t seed, std::size_t count) {
  Rng rng(seed ^ 0x73656c656374ULL);
  std::set<std::string> seen;
  std::vector<Frame> frames;
  frames.reserve(count);
  int aggregate_cycle = 0;
  while (frames.size() < count) {
    const std::int64_t length = rng.NextInt(1, 24);
    const std::int64_t start = rng.NextInt(0, kMonthHours - length);
    // Distance windows sit where the generator puts trips (lognormal,
    // median ~1.8 mi); the fare window brackets the fares those distances
    // imply (2.50 + 2.40/mi, +-1 USD noise), so a few rows per region
    // survive both.
    const double d0 =
        std::clamp(std::exp(rng.NextGaussian(0.6, 0.7)), 0.2, 20.0);
    const double d1 = d0 + rng.NextDouble(0.1, 0.5);
    const double f0 = 2.5 + 2.4 * d0 - rng.NextDouble(0.0, 1.0);
    const double f1 = 2.5 + 2.4 * d1 + rng.NextDouble(0.0, 1.0);
    std::string sql = Select(aggregate_cycle++) + " WHERE " +
                      TimeClause(start, start + length) +
                      " AND fare_amount IN [" + Money(f0) + ", " + Money(f1) +
                      "] AND trip_distance IN [" + Money(d0) + ", " +
                      Money(d1) + "]";
    if (!seen.insert(sql).second) continue;
    frames.push_back({std::move(sql), "accurate"});
  }
  return frames;
}

std::vector<std::vector<Frame>> SaturateTraces(std::uint64_t seed, int clients,
                                               std::size_t per_client) {
  std::set<std::string> seen;
  std::vector<std::vector<Frame>> traces(
      static_cast<std::size_t>(std::max(clients, 0)));
  for (std::size_t c = 0; c < traces.size(); ++c) {
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x7361747572ULL + c);
    int aggregate_cycle = static_cast<int>(c);
    while (traces[c].size() < per_client) {
      const std::int64_t length = rng.NextInt(3 * 24, 15 * 24);
      const std::int64_t start = rng.NextInt(0, kMonthHours - length);
      std::string sql = Select(aggregate_cycle++) + " WHERE " +
                        TimeClause(start, start + length);
      if (!seen.insert(sql).second) continue;
      traces[c].push_back({std::move(sql), "auto"});
    }
  }
  return traces;
}

LiveSchedule IngestLiveSchedule(std::uint64_t seed,
                                const std::vector<std::int64_t>& head_times,
                                std::size_t batch_rows,
                                std::size_t flush_every,
                                std::size_t compact_every) {
  Rng rng(seed ^ 0x6c697665ULL);
  // A small pool of closed base-day ranges: revisits are cache hits that
  // survive appends (their time range never overlaps new rows).
  std::vector<std::pair<std::int64_t, std::int64_t>> base_ranges;
  for (int i = 0; i < 12; ++i) {
    const std::int64_t days = rng.NextInt(1, 3);
    const std::int64_t first = rng.NextInt(0, kLiveFirstDay - 1 - days);
    base_ranges.emplace_back(first * 24, (first + days) * 24);
  }

  LiveSchedule schedule;
  schedule.batch_rows = batch_rows;
  schedule.steps.reserve(head_times.size());
  int aggregate_cycle = 0;
  std::size_t flushes = 0;
  for (std::size_t b = 0; b < head_times.size(); ++b) {
    LiveStep step;
    const std::int64_t head_hour = (head_times[b] - kMonthStart) / kHour;
    const std::int64_t span = rng.NextInt(1, 6);
    step.frames.push_back(
        {Select(aggregate_cycle++) + " WHERE " +
             TimeClause(head_hour + 1 - span, head_hour + 1),
         "accurate"});
    const auto& base =
        base_ranges[static_cast<std::size_t>(
            rng.NextUint64(base_ranges.size()))];
    step.frames.push_back({Select(aggregate_cycle++) + " WHERE " +
                               TimeClause(base.first, base.second),
                           "accurate"});
    // A random closed range (1-3 days ending on an hour before the head's
    // day) across the last base days and the streamed days: a miss that
    // runs on the base store and the store runs. The stream is in
    // timestamp order, so no later batch adds rows to a closed range.
    const std::int64_t head_day_hour = head_hour / 24 * 24;
    const std::int64_t lo_end = (kLiveFirstDay - 4) * 24;
    const std::int64_t end_hour =
        rng.NextInt(lo_end, std::max(lo_end, head_day_hour));
    const std::int64_t length = rng.NextInt(24, 72);
    step.frames.push_back({Select(aggregate_cycle++) + " WHERE " +
                               TimeClause(end_hour - length, end_hour),
                           "accurate"});
    if (flush_every > 0 && (b + 1) % flush_every == 0) {
      step.flush = true;
      ++flushes;
      step.compact = compact_every > 0 && flushes % compact_every == 0;
    }
    schedule.steps.push_back(std::move(step));
  }
  return schedule;
}

Frame LiveCountCheck() {
  return {Select(0), "accurate"};
}

Frame WarmupFrame(const std::string& method) {
  return {Select(0), method};
}

}  // namespace urbane::perfbench
