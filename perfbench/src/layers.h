#ifndef URBANE_PERFBENCH_LAYERS_H_
#define URBANE_PERFBENCH_LAYERS_H_

// Per-layer attribution for the traced run. The program is not modified:
// server-side layers come from the urbane.profile.v1 document a
// `?profile=1` request returns (queue wait, facade wall, executor passes,
// shards, store pruning) and from the response's `elapsed_ms`; the
// parse / decode / render layers are timed by re-running the program's own
// public functions on the exact bytes of each exchange.

#include <cstdint>
#include <string>
#include <vector>

#include "core/spatial_aggregation.h"
#include "report.h"

namespace urbane::perfbench {

/// One HTTP exchange of the traced replay, kept verbatim for analysis
/// after the measured phase.
struct TracedExchange {
  bool append = false;  // POST /v1/ingest (else POST /v1/query)
  double start_ms = 0.0;  // since the phase started
  double rtt_ms = 0.0;    // connect + send -> full response read
  int status = 0;
  std::string request;  // full request bytes
  std::string body;     // response body
  std::string method;   // requested executor (queries)
  /// ingest_live: live components (base + runs + hot) when it was sent.
  std::uint64_t components = 0;
};

/// What the client measured beside the exchanges.
struct LayerInputs {
  /// Engine the planner runs against ("auto" frames), else null.
  const core::SpatialAggregation* engine = nullptr;
  /// Rows a query's filter examines before pruning; live data sets use
  /// each response's watermark instead.
  std::uint64_t table_rows = 0;
  double store_open_ms = 0.0;
  std::vector<double> flush_ms;
  std::vector<double> compact_ms;
  std::uint64_t storage_bytes_written = 0;
  std::uint64_t bytes_appended = 0;
};

/// One span of the trace file (times in ms since the phase started).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0;
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// Builds the span tree of every exchange (appended to `spans`) and
/// derives the per-layer metrics from it, in a fixed order.
std::vector<Metric> AnalyzeLayers(const std::vector<TracedExchange>& exchanges,
                                  const LayerInputs& inputs,
                                  std::vector<Span>* spans);

/// Self time: the span's duration minus the union of its children's
/// intervals (clipped to the span).
double SelfTimeMs(const Span& span, const std::vector<Span>& children);

/// Writes spans as JSON lines; false on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace urbane::perfbench

#endif  // URBANE_PERFBENCH_LAYERS_H_
