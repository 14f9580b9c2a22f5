// Streaming-ingest bench (DESIGN.md §13): sustained append throughput on a
// LiveTable and query latency on its LiveEngine while the writer is active.
//
// Three phases over one synthetic taxi month:
//   append       one writer streams every trip in fixed-size batches through
//                Append(), flushing when the write path pushes back (429 in
//                HTTP terms); reports batch-append latency percentiles and
//                sustained rows/s.
//   query+ingest the same writer streams the second half of the data while
//                this thread replays a fig8-style brushing session (sliding
//                time windows, all four executors) against the LiveEngine.
//   query static the identical session against a stop-the-world
//                SpatialAggregation built over the final concatenated rows —
//                the baseline the ISSUE gates against: concurrent latency
//                must stay within 2x of static per executor.
//
// Latencies are also Observe()d into the global metrics registry
// (ingest.bench.* histograms) so a URBANE_BENCH_CSV run ships them — plus
// the ingest.* counters the write path publishes — in the JSON sidecar that
// BENCH_TRAJECTORY.json entries are folded from.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "core/planner.h"
#include "core/query.h"
#include "core/spatial_aggregation.h"
#include "data/point_table.h"
#include "data/region_generator.h"
#include "data/taxi_generator.h"
#include "ingest/live_engine.h"
#include "ingest/live_table.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/latency.h"
#include "util/timer.h"

namespace {

using namespace urbane;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One writer pass: streams rows [begin, end) of `trips` into the table in
// `batch_rows` slices (zero-copy views), flushing and retrying whenever the
// write path is saturated. Appends each successful batch latency to `out`.
Status StreamRows(ingest::LiveTable& table, const data::PointTable& trips,
                  std::size_t begin, std::size_t end, std::size_t batch_rows,
                  LatencyRecorder* out) {
  obs::Histogram& append_hist =
      obs::MetricsRegistry::Global().GetHistogram("ingest.bench.append_seconds");
  for (std::size_t offset = begin; offset < end; offset += batch_rows) {
    const std::size_t count = std::min(batch_rows, end - offset);
    std::vector<const float*> attributes;
    for (std::size_t a = 0; a < trips.schema().attribute_count(); ++a) {
      attributes.push_back(trips.attribute_data(a) + offset);
    }
    StatusOr<data::PointTable> batch =
        data::PointTable::View(trips.schema(), trips.xs() + offset,
                               trips.ys() + offset, trips.ts() + offset,
                               attributes, count);
    if (!batch.ok()) {
      return batch.status();
    }
    for (;;) {
      const double start = Now();
      StatusOr<std::uint64_t> watermark = table.Append(*batch);
      if (watermark.ok()) {
        const double seconds = Now() - start;
        out->Record(seconds);
        append_hist.Observe(seconds);
        break;
      }
      if (watermark.status().code() != StatusCode::kResourceExhausted) {
        return watermark.status();
      }
      // The saturated-writer contract: drain sealed runs, then retry.
      Status flushed = table.Flush();
      if (!flushed.ok()) {
        return flushed;
      }
    }
  }
  return Status::OK();
}

constexpr core::ExecutionMethod kMethods[] = {
    core::ExecutionMethod::kBoundedRaster,
    core::ExecutionMethod::kAccurateRaster, core::ExecutionMethod::kIndexJoin,
    core::ExecutionMethod::kScan};

// The brushing session both phases replay: `frames_per_method` sliding time
// windows (width 1/4 of the domain, advancing 1/32 per frame) per executor,
// SUM(fare_amount) per neighborhood. `execute` runs one query and returns
// its wall seconds (or a failure).
template <typename ExecuteFrame>
Status ReplaySession(std::int64_t t0, std::int64_t t1,
                     std::size_t frames_per_method, const char* metric_phase,
                     std::vector<LatencyRecorder>* latencies,
                     const ExecuteFrame& execute) {
  const std::int64_t span = std::max<std::int64_t>(t1 - t0, 32);
  latencies->assign(std::size(kMethods), {});
  for (std::size_t frame = 0; frame < frames_per_method; ++frame) {
    const std::int64_t begin = t0 + (span / 32) * (frame % 24);
    const std::int64_t end = std::min<std::int64_t>(begin + span / 4, t1 + 1);
    for (std::size_t m = 0; m < std::size(kMethods); ++m) {
      core::AggregationQuery query;
      query.aggregate = core::AggregateSpec::Sum("fare_amount");
      query.filter.WithTime(begin, end);
      StatusOr<double> seconds = execute(query, kMethods[m]);
      if (!seconds.ok()) {
        return seconds.status();
      }
      (*latencies)[m].Record(*seconds);
      obs::MetricsRegistry::Global()
          .GetHistogram(std::string("ingest.bench.query_seconds.") +
                        core::ExecutionMethodToString(kMethods[m]) + "." +
                        metric_phase)
          .Observe(*seconds);
    }
  }
  return Status::OK();
}

int Run() {
  bench::PrintHeader(
      "Streaming ingest: appends under live queries",
      "One writer streams the taxi month into a LiveTable (batch appends, "
      "flush-on-backpressure) while a fig8-style brushing session replays "
      "against the LiveEngine; concurrent frame latency is gated against a "
      "stop-the-world engine over the same final rows (< 2x per executor).");
  obs::SetMetricsEnabled(true);

  data::TaxiGeneratorOptions taxi_options;
  taxi_options.num_trips = bench::ScaledCount(600'000);
  std::printf("generating %zu trips...\n", taxi_options.num_trips);
  const data::PointTable trips = data::GenerateTaxiTrips(taxi_options);
  const data::RegionSet neighborhoods = data::GenerateNeighborhoods();
  const auto [t0, t1] = trips.TimeRange();
  const std::size_t half = trips.size() / 2;
  const std::size_t batch_rows = 8192;

  const std::string dir =
      (std::filesystem::temp_directory_path() / "urbane_bench_ingest")
          .string();
  std::filesystem::remove_all(dir);

  ingest::IngestOptions ingest_options;
  ingest_options.memtable_rows = 64 * 1024;
  ingest_options.max_sealed_runs = 2;
  ingest_options.run_block_rows = 64 * 1024;
  StatusOr<std::unique_ptr<ingest::LiveTable>> table = ingest::LiveTable::Open(
      dir, trips.schema(), nullptr, nullptr, ingest_options);
  if (!table.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 table.status().ToString().c_str());
    return 1;
  }

  const std::size_t bench_shards = bench::BenchThreads();
  ingest::LiveEngineOptions live_options;
  live_options.raster_options.resolution = 1024;
  live_options.num_shards = bench_shards;
  ingest::LiveEngine live(table->get(), &neighborhoods, live_options);

  bench::ResultTable result(
      "ingest_streaming",
      {"phase", "executor", "frames", "p50", "p95", "max", "throughput",
       "vs_static"});

  // Phase 1: unloaded append throughput over the first half.
  LatencyRecorder append_latencies;
  {
    const double start = Now();
    Status streamed =
        StreamRows(**table, trips, 0, half, batch_rows, &append_latencies);
    if (!streamed.ok()) {
      std::fprintf(stderr, "append failed: %s\n", streamed.ToString().c_str());
      return 1;
    }
    const double elapsed = Now() - start;
    const LatencySummary stats = append_latencies.Summarize();
    result.AddRow({"append", "-", std::to_string(stats.count),
                   FormatDuration(stats.p50), FormatDuration(stats.p95),
                   FormatDuration(stats.max),
                   bench::ResultTable::Cell(
                       "%.0f rows/s", static_cast<double>(half) / elapsed),
                   "-"});
  }

  // Phase 2: the writer streams the second half while this thread replays
  // the brushing session against the LiveEngine.
  std::vector<LatencyRecorder> concurrent;
  LatencyRecorder loaded_append_latencies;
  {
    Status writer_status = Status::OK();
    std::thread writer([&] {
      writer_status = StreamRows(**table, trips, half, trips.size(),
                                 batch_rows, &loaded_append_latencies);
    });
    // Replay until the writer drains, then keep the recorded frames: the
    // frame budget is sized so the session outlasts the writer at every
    // URBANE_BENCH_SCALE (extra frames just tighten the percentiles).
    Status replayed = ReplaySession(
        t0, t1, 24, "concurrent", &concurrent,
        [&](core::AggregationQuery query,
            core::ExecutionMethod method) -> StatusOr<double> {
          const double start = Now();
          StatusOr<core::QueryResult> frame = live.Execute(query, method);
          if (!frame.ok()) {
            return frame.status();
          }
          return Now() - start;
        });
    writer.join();
    if (!writer_status.ok() || !replayed.ok()) {
      std::fprintf(stderr, "concurrent phase failed: %s\n",
                   (writer_status.ok() ? replayed : writer_status)
                       .ToString()
                       .c_str());
      return 1;
    }
  }

  // Settle the table into its steady read-optimized shape, then build the
  // stop-the-world baseline over the identical row set.
  if (Status status = (*table)->Flush(); !status.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (Status status = (*table)->Compact(); !status.ok()) {
    std::fprintf(stderr, "compact failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const ingest::IngestStats ingest_stats = (*table)->stats();
  std::printf(
      "\ningested %llu rows: %llu appends, %llu rejected (backpressure), "
      "%llu flushes, %llu compactions\n\n",
      static_cast<unsigned long long>(ingest_stats.watermark),
      static_cast<unsigned long long>(ingest_stats.appends),
      static_cast<unsigned long long>(ingest_stats.rejected),
      static_cast<unsigned long long>(ingest_stats.flushes),
      static_cast<unsigned long long>(ingest_stats.compactions));

  std::vector<LatencyRecorder> static_latencies;
  {
    const ingest::LiveSnapshot snapshot = (*table)->Snapshot();
    data::PointTable all(trips.schema());
    all.Reserve(snapshot.watermark);
    for (const auto& run : snapshot.runs) {
      const data::PointTable& part = run->table;
      for (std::size_t i = 0; i < part.size(); ++i) {
        std::vector<float> attributes(part.schema().attribute_count());
        for (std::size_t a = 0; a < attributes.size(); ++a) {
          attributes[a] = part.attribute(i, a);
        }
        if (Status status = all.AppendRow(part.x(i), part.y(i), part.t(i),
                                          attributes);
            !status.ok()) {
          std::fprintf(stderr, "concat failed: %s\n",
                       status.ToString().c_str());
          return 1;
        }
      }
    }
    core::RasterJoinOptions raster_options;
    raster_options.resolution = 1024;
    core::SpatialAggregation baseline(all, neighborhoods, raster_options);
    baseline.set_num_shards(bench_shards);
    Status replayed = ReplaySession(
        t0, t1, 24, "static", &static_latencies,
        [&](core::AggregationQuery query,
            core::ExecutionMethod method) -> StatusOr<double> {
          const double start = Now();
          StatusOr<core::QueryResult> frame = baseline.Execute(query, method);
          if (!frame.ok()) {
            return frame.status();
          }
          return Now() - start;
        });
    if (!replayed.ok()) {
      std::fprintf(stderr, "static phase failed: %s\n",
                   replayed.ToString().c_str());
      return 1;
    }
  }

  {
    const LatencySummary stats = loaded_append_latencies.Summarize();
    result.AddRow(
        {"append (loaded)", "-", std::to_string(stats.count),
         FormatDuration(stats.p50), FormatDuration(stats.p95),
         FormatDuration(stats.max), "-", "-"});
  }
  for (std::size_t m = 0; m < std::size(kMethods); ++m) {
    const LatencySummary st = static_latencies[m].Summarize();
    result.AddRow({"query static", core::ExecutionMethodToString(kMethods[m]),
                   std::to_string(st.count), FormatDuration(st.p50),
                   FormatDuration(st.p95), FormatDuration(st.max), "-", "-"});
  }
  for (std::size_t m = 0; m < std::size(kMethods); ++m) {
    const LatencySummary live_stats = concurrent[m].Summarize();
    const LatencySummary static_stats = static_latencies[m].Summarize();
    const double ratio = static_stats.p50 > 0.0
                             ? live_stats.p50 / static_stats.p50
                             : 0.0;
    result.AddRow(
        {"query+ingest", core::ExecutionMethodToString(kMethods[m]),
         std::to_string(live_stats.count), FormatDuration(live_stats.p50),
         FormatDuration(live_stats.p95), FormatDuration(live_stats.max), "-",
         bench::ResultTable::Cell("%.2fx", ratio)});
  }
  result.Finish();
  std::filesystem::remove_all(dir);
  return 0;
}

}  // namespace

int main() { return Run(); }
