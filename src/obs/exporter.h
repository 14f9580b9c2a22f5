#ifndef URBANE_OBS_EXPORTER_H_
#define URBANE_OBS_EXPORTER_H_

// Background telemetry exporter and the telemetry routes.
//
// TelemetryExporter owns one thread: a periodic flush that snapshots the
// metrics registry and appends a JSONL delta line ("urbane.telemetry.v1")
// to a sink file. Scrape endpoints are not its job — the query server
// mounts /metrics, /slowlog and /healthz on its own listener through
// TelemetryEndpoint, so one port and one worker pool serve traffic and
// scrape.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "util/status.h"

namespace urbane::obs {

/// Routes one telemetry path to its payload:
///   /metrics  — Prometheus text exposition format (0.0.4)
///   /slowlog  — the slow-query flight recorder as urbane.slowlog.v1
///   /healthz  — "ok"
/// Any query string is ignored. Returns false for an unknown path;
/// otherwise fills content type and body.
bool TelemetryEndpoint(const std::string& path, std::string* content_type,
                       std::string* body);

struct TelemetryExporterOptions {
  // JSONL delta sink; empty disables file output.
  std::string sink_path;
  // Period between registry snapshots / sink flushes.
  double flush_period_seconds = 1.0;
};

class TelemetryExporter {
 public:
  explicit TelemetryExporter(TelemetryExporterOptions options = {});
  ~TelemetryExporter();  // calls Stop()

  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  // Starts the background thread. Fails on double Start.
  Status Start();
  // Stops the thread and writes one final sink flush. Idempotent; also
  // invoked by the destructor.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  const TelemetryExporterOptions& options() const { return options_; }

  // Number of sink flushes written so far.
  std::uint64_t flushes() const {
    return flushes_.load(std::memory_order_relaxed);
  }

 private:
  void Run();
  void Flush();

  TelemetryExporterOptions options_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::atomic<std::uint64_t> flushes_{0};
  MetricsSnapshot last_flushed_;  // thread-private to Run()/final Stop flush
};

}  // namespace urbane::obs

#endif  // URBANE_OBS_EXPORTER_H_
