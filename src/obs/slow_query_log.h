#ifndef URBANE_OBS_SLOW_QUERY_LOG_H_
#define URBANE_OBS_SLOW_QUERY_LOG_H_

// Slow-query flight recorder.
//
// Profiling every query is too expensive for production, and switching it
// on *after* a slow query happened is too late. The flight recorder arms a
// per-query profile instead: the facade attaches a QueryProfile to every
// query while armed, and after the query finishes asks `MaybeRecord`
// whether the wall time crossed the threshold. Only then is the full
// urbane.profile.v1 breakdown (planner choice, per-pass and per-shard
// costs), the query fingerprint, the query text, and the plan committed to
// a bounded ring of retained records — tail diagnosis at the cost of one
// profile allocation per query.
//
// The threshold is either absolute (`threshold_seconds`) or relative: with
// `p99_multiplier > 0` the threshold is `multiplier * p99` of a registry
// latency histogram, re-read at most every 250 ms so the p99 computation
// stays off the per-query path.

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "data/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace urbane::obs {

struct SlowQueryRecord {
  std::uint64_t sequence = 0;       // monotonically increasing capture index
  std::uint64_t fingerprint = 0;    // query fingerprint (cache key)
  std::string method;               // executor name ("scan", "raster", ...)
  std::string query;                // AggregationQuery::ToString()
  std::string plan;                 // planner explanation, if any
  std::string trace_id;             // W3C trace id (hex); "" when none
  double wall_seconds = 0.0;
  double threshold_seconds = 0.0;   // the threshold in force at capture
  double timestamp_seconds = 0.0;   // process uptime at capture
  data::JsonValue profile;          // urbane.profile.v1 document (or null)
};

struct SlowQueryLogOptions {
  // Absolute threshold. Used as-is when p99_multiplier == 0.
  double threshold_seconds = 0.1;
  // When > 0: threshold = p99_multiplier * p99(histogram_name), floored at
  // threshold_floor_seconds so an idle histogram doesn't capture everything.
  double p99_multiplier = 0.0;
  std::string histogram_name = "query.wall_seconds";
  double threshold_floor_seconds = 0.001;
  // Retained records; oldest evicted first.
  std::size_t capacity = 64;
};

class SlowQueryLog {
 public:
  explicit SlowQueryLog(SlowQueryLogOptions options = {});

  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  // The process-wide recorder the facade consults.
  static SlowQueryLog& Global();

  // Armed == the facade should attach a profile to every query.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }
  void Arm() { armed_.store(true, std::memory_order_relaxed); }
  void Disarm() { armed_.store(false, std::memory_order_relaxed); }

  void SetOptions(const SlowQueryLogOptions& options);
  SlowQueryLogOptions options() const;

  // The threshold currently in force (cached; see RefreshThreshold).
  double ThresholdSeconds() const;
  // Recomputes the p99-derived threshold immediately (the per-query path
  // refreshes it lazily at most every 250 ms). Reads `registry` — pass the
  // registry whose histogram the options name; defaults to the global one.
  void RefreshThreshold(const MetricsRegistry* registry = nullptr);

  // Commits a record iff wall_seconds >= ThresholdSeconds(). The profile
  // may be null (the record is kept without a breakdown); a non-null
  // profile embeds the full urbane.profile.v1 document and its trace id in
  // the record. Returns true on capture.
  bool MaybeRecord(std::uint64_t fingerprint, const std::string& method,
                   const std::string& query, const std::string& plan,
                   double wall_seconds, const QueryProfile* profile = nullptr);

  // Newest-last copy of the retained records.
  std::vector<SlowQueryRecord> Records() const;
  // Total captures since construction/Clear (>= Records().size()).
  std::uint64_t captured() const {
    return captured_.load(std::memory_order_relaxed);
  }
  void Clear();

  // Schema "urbane.slowlog.v1": {schema, armed, threshold_seconds,
  // captured, records: [...]} — see DESIGN.md "Observability".
  data::JsonValue ToJson() const;

 private:
  std::atomic<bool> armed_{false};

  mutable std::mutex mu_;
  SlowQueryLogOptions options_;
  std::deque<SlowQueryRecord> records_;
  std::atomic<std::uint64_t> captured_{0};
  std::uint64_t next_sequence_ = 0;

  // Cached threshold, refreshed from the histogram at most every 250 ms.
  mutable std::mutex threshold_mu_;
  mutable double cached_threshold_ = 0.0;
  mutable double cached_at_seconds_ = -1.0;
};

}  // namespace urbane::obs

#endif  // URBANE_OBS_SLOW_QUERY_LOG_H_
