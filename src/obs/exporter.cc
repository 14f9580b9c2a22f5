#include "obs/exporter.h"

#include <chrono>
#include <fstream>
#include <utility>

#include "obs/process_metrics.h"
#include "obs/event_journal.h"
#include "obs/prometheus.h"
#include "obs/slow_query_log.h"

namespace urbane::obs {

namespace {

constexpr int kPollSliceMs = 50;

}  // namespace

bool TelemetryEndpoint(const std::string& path, std::string* content_type,
                       std::string* body) {
  // Ignore any query string.
  const std::string route = path.substr(0, path.find('?'));
  if (route == "/metrics") {
    UpdateProcessGauges(MetricsRegistry::Global());
    // Journal/slowlog health is sampled at scrape time rather than pushed
    // on every event: dropped events are exactly the moments when pushing
    // more telemetry is the wrong idea.
    MetricsRegistry::Global()
        .GetGauge("journal.dropped_total")
        .Set(static_cast<double>(EventJournal::Global().dropped()));
    MetricsRegistry::Global()
        .GetGauge("slowlog.entries")
        .Set(static_cast<double>(SlowQueryLog::Global().Records().size()));
    const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    *content_type = "text/plain; version=0.0.4";
    *body = ToPrometheusText(snapshot);
    return true;
  }
  if (route == "/slowlog") {
    *content_type = "application/json";
    *body = SlowQueryLog::Global().ToJson().Dump(2) + "\n";
    return true;
  }
  if (route == "/healthz") {
    *content_type = "text/plain";
    *body = "ok\n";
    return true;
  }
  return false;
}

TelemetryExporter::TelemetryExporter(TelemetryExporterOptions options)
    : options_(std::move(options)) {}

TelemetryExporter::~TelemetryExporter() { Stop(); }

Status TelemetryExporter::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("exporter already running");
  }
  stop_.store(false, std::memory_order_release);
  last_flushed_ = MetricsSnapshot{};
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void TelemetryExporter::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  Flush();  // final flush so short-lived runs still leave a sink line
}

void TelemetryExporter::Run() {
  using Clock = std::chrono::steady_clock;
  const auto flush_period = std::chrono::duration<double>(
      options_.flush_period_seconds > 0.0 ? options_.flush_period_seconds
                                          : 1.0);
  Flush();  // initial snapshot establishes the delta baseline
  auto next_flush = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       flush_period);
  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollSliceMs));
    if (Clock::now() >= next_flush) {
      Flush();
      next_flush = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      flush_period);
    }
  }
}

void TelemetryExporter::Flush() {
  if (options_.sink_path.empty()) return;
  UpdateProcessGauges(MetricsRegistry::Global());
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const MetricsSnapshot delta = MetricsSnapshot::Delta(snapshot, last_flushed_);
  last_flushed_ = snapshot;

  data::JsonValue::Object line;
  line.emplace_back("schema", data::JsonValue("urbane.telemetry.v1"));
  line.emplace_back("uptime_seconds",
                    data::JsonValue(ProcessUptimeSeconds()));
  line.emplace_back("delta", delta.ToJson());
  std::ofstream out(options_.sink_path, std::ios::app);
  if (!out) return;
  out << data::JsonValue(std::move(line)).Dump(-1) << "\n";
  flushes_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace urbane::obs
