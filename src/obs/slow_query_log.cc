#include "obs/slow_query_log.h"

#include <algorithm>
#include <utility>

#include "obs/process_metrics.h"
#include "util/string_util.h"

namespace urbane::obs {

namespace {
constexpr double kThresholdRefreshSeconds = 0.25;
}  // namespace

SlowQueryLog::SlowQueryLog(SlowQueryLogOptions options)
    : options_(std::move(options)) {
  if (options_.capacity == 0) options_.capacity = 1;
}

SlowQueryLog& SlowQueryLog::Global() {
  static SlowQueryLog* log = new SlowQueryLog();  // never destroyed
  return *log;
}

void SlowQueryLog::SetOptions(const SlowQueryLogOptions& options) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    options_ = options;
    if (options_.capacity == 0) options_.capacity = 1;
    while (records_.size() > options_.capacity) records_.pop_front();
  }
  // Invalidate the cached threshold so the new options take effect now.
  std::lock_guard<std::mutex> lock(threshold_mu_);
  cached_at_seconds_ = -1.0;
}

SlowQueryLogOptions SlowQueryLog::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

double SlowQueryLog::ThresholdSeconds() const {
  SlowQueryLogOptions opts = options();
  if (opts.p99_multiplier <= 0.0) return opts.threshold_seconds;
  const double now = ProcessUptimeSeconds();
  std::lock_guard<std::mutex> lock(threshold_mu_);
  if (cached_at_seconds_ >= 0.0 &&
      now - cached_at_seconds_ < kThresholdRefreshSeconds) {
    return cached_threshold_;
  }
  const HistogramSnapshot histogram =
      MetricsRegistry::Global().SnapshotHistogram(opts.histogram_name);
  double threshold = opts.threshold_floor_seconds;
  if (histogram.count > 0) {
    threshold = std::max(threshold,
                         opts.p99_multiplier * histogram.Quantile(0.99));
  }
  cached_threshold_ = threshold;
  cached_at_seconds_ = now;
  return threshold;
}

void SlowQueryLog::RefreshThreshold(const MetricsRegistry* registry) {
  SlowQueryLogOptions opts = options();
  std::lock_guard<std::mutex> lock(threshold_mu_);
  if (opts.p99_multiplier <= 0.0) {
    cached_threshold_ = opts.threshold_seconds;
    cached_at_seconds_ = ProcessUptimeSeconds();
    return;
  }
  const MetricsRegistry& source =
      registry != nullptr ? *registry : MetricsRegistry::Global();
  const HistogramSnapshot histogram =
      source.SnapshotHistogram(opts.histogram_name);
  double threshold = opts.threshold_floor_seconds;
  if (histogram.count > 0) {
    threshold = std::max(threshold,
                         opts.p99_multiplier * histogram.Quantile(0.99));
  }
  cached_threshold_ = threshold;
  cached_at_seconds_ = ProcessUptimeSeconds();
}

bool SlowQueryLog::MaybeRecord(std::uint64_t fingerprint,
                               const std::string& method,
                               const std::string& query,
                               const std::string& plan, double wall_seconds,
                               const QueryProfile* profile) {
  const double threshold = ThresholdSeconds();
  if (wall_seconds < threshold) return false;

  SlowQueryRecord record;
  record.fingerprint = fingerprint;
  record.method = method;
  record.query = query;
  record.plan = plan;
  record.wall_seconds = wall_seconds;
  record.threshold_seconds = threshold;
  record.timestamp_seconds = ProcessUptimeSeconds();
  if (profile != nullptr) {
    record.trace_id = profile->context.TraceIdHex();
    record.profile = profile->ToJson();
  }

  std::lock_guard<std::mutex> lock(mu_);
  record.sequence = next_sequence_++;
  records_.push_back(std::move(record));
  while (records_.size() > options_.capacity) records_.pop_front();
  captured_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::vector<SlowQueryRecord> SlowQueryLog::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<SlowQueryRecord>(records_.begin(), records_.end());
}

void SlowQueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  captured_.store(0, std::memory_order_relaxed);
  next_sequence_ = 0;
}

data::JsonValue SlowQueryLog::ToJson() const {
  data::JsonValue::Object root;
  root.emplace_back("schema", data::JsonValue("urbane.slowlog.v1"));
  root.emplace_back("armed", data::JsonValue(armed()));
  root.emplace_back("threshold_seconds", data::JsonValue(ThresholdSeconds()));
  root.emplace_back("captured",
                    data::JsonValue(static_cast<double>(captured())));

  data::JsonValue::Array record_array;
  for (const SlowQueryRecord& record : Records()) {
    data::JsonValue::Object entry;
    entry.emplace_back("sequence",
                       data::JsonValue(static_cast<double>(record.sequence)));
    // 64-bit fingerprints don't round-trip through JSON doubles; hex string.
    entry.emplace_back(
        "fingerprint",
        data::JsonValue(StringPrintf(
            "%016llx", static_cast<unsigned long long>(record.fingerprint))));
    entry.emplace_back("method", data::JsonValue(record.method));
    entry.emplace_back("query", data::JsonValue(record.query));
    entry.emplace_back("plan", data::JsonValue(record.plan));
    entry.emplace_back("trace_id", data::JsonValue(record.trace_id));
    entry.emplace_back("wall_seconds", data::JsonValue(record.wall_seconds));
    entry.emplace_back("threshold_seconds",
                       data::JsonValue(record.threshold_seconds));
    entry.emplace_back("timestamp_seconds",
                       data::JsonValue(record.timestamp_seconds));
    entry.emplace_back("profile", record.profile);
    record_array.emplace_back(std::move(entry));
  }
  root.emplace_back("records", data::JsonValue(std::move(record_array)));
  return data::JsonValue(std::move(root));
}

}  // namespace urbane::obs
