// End-to-end benchmark of the Urbane query server.
//
//   urbane_perfbench --workload <explore|selective|saturate|ingest_live>
//                    --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//
// One process hosts the query server on loopback and drives it over HTTP
// from closed-loop client threads: each client sends its next request only
// after the previous response was read in full, as an analyst waits for a
// frame before the next interaction. The process generates the inputs from
// the seed, hands them to the program (timed as set-up), runs the measured
// phase, checks answers against an independent unsharded engine, and
// prints its report; the last line of standard output is one JSON object.
//
// --trace 0 reports the end-to-end metrics. --trace 1 replays the same
// requests twice on fresh deployments, once plain and once with
// `?profile=1`, reports the per-layer metrics of the profiled replay and
// the difference between the two as the tracing overhead, and writes the
// spans to <out-dir>/spans-<workload>-<seed>.jsonl.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/sql.h"
#include "data/json.h"
#include "data/region_generator.h"
#include "data/taxi_generator.h"
#include "layers.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "report.h"
#include "sampling.h"
#include "server/json_api.h"
#include "server/query_server.h"
#include "store/store_writer.h"
#include "urbane/dataset_manager.h"
#include "urbane/server_backend.h"
#include "workload.h"

namespace urbane::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// The data set is one fixed month of trips over a fixed city, as the
/// paper's evaluation uses one real month; the seed varies what the
/// analysts do with it, so the spread between seeds is that of the
/// request mix and the host.
constexpr std::size_t kTrips = 1'000'000;
constexpr std::uint64_t kTripSeed = 42;
constexpr std::uint64_t kRegionSeed = 3;
constexpr int kCanvas = 1024;
constexpr std::size_t kCacheEntries = 16384;
constexpr int kClientTimeoutMs = 10'000;
constexpr double kLatencyLimitMs = 100.0;
/// set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 3;
/// Answer checks: every kSampleEvery-th frame of each client, at most
/// kMaxSamples per client.
constexpr std::size_t kSampleEvery = 16;
constexpr std::size_t kMaxSamples = 48;
/// ingest_live write path.
constexpr std::size_t kBatchRows = 1000;
constexpr std::size_t kFlushEvery = 10;
constexpr std::size_t kCompactEvery = 3;
constexpr std::size_t kRowBytes = 32;  // x, y: f32; t: i64; four f32 attributes

double MsBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

int Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

struct Options {
  Workload workload = Workload::kExplore;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      have_workload = ParseWorkload(value, &options->workload);
      if (!have_workload) return false;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      options->trace = value == "1";
    } else if (key == "--out-dir") {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && options->seconds > 0 && !options->out_dir.empty();
}

// ---------------------------------------------------------------------------
// Inputs: generated from the seed before anything is timed.

struct Inputs {
  /// The full month, or for ingest_live the base days.
  data::PointTable trips;
  data::RegionSet hoods;
  /// ingest_live: the streamed days in timestamp order.
  data::PointTable stream;
  /// ingest_live: the base days as a UST1 store.
  std::string store_path;
};

// Copies rows `order[begin, end)` of `table` into a new owning table.
data::PointTable TakeRows(const data::PointTable& table,
                          const std::vector<std::size_t>& order,
                          std::size_t begin, std::size_t end) {
  data::PointTable out(table.schema());
  out.Reserve(end - begin);
  const std::size_t arity = table.schema().attribute_count();
  for (std::size_t a = 0; a < arity; ++a) {
    out.mutable_attribute_column(a).reserve(end - begin);
  }
  for (std::size_t k = begin; k < end; ++k) {
    const std::size_t row = order[k];
    out.AppendXyt(table.x(row), table.y(row), table.t(row));
    for (std::size_t a = 0; a < arity; ++a) {
      out.mutable_attribute_column(a).push_back(table.attribute(row, a));
    }
  }
  return out;
}

StatusOr<Inputs> PrepareInputs(const Options& options,
                               const std::string& work_dir) {
  data::TaxiGeneratorOptions taxi;
  taxi.num_trips = kTrips;
  taxi.seed = kTripSeed;
  Inputs inputs;
  inputs.hoods = data::GenerateNeighborhoods(kRegionSeed);
  data::PointTable month = data::GenerateTaxiTrips(taxi);
  if (options.workload != Workload::kIngestLive) {
    inputs.trips = std::move(month);
    return inputs;
  }
  // Base: days before kLiveFirstDay in generated order. Stream: the rest,
  // stably sorted by timestamp.
  const std::int64_t split = kMonthStart + (kLiveFirstDay - 1) * kDay;
  std::vector<std::size_t> base_rows;
  std::vector<std::size_t> stream_rows;
  for (std::size_t i = 0; i < month.size(); ++i) {
    (month.t(i) < split ? base_rows : stream_rows).push_back(i);
  }
  std::stable_sort(stream_rows.begin(), stream_rows.end(),
                   [&](std::size_t a, std::size_t b) {
                     return month.t(a) < month.t(b);
                   });
  inputs.trips = TakeRows(month, base_rows, 0, base_rows.size());
  inputs.stream = TakeRows(month, stream_rows, 0, stream_rows.size());
  inputs.store_path = work_dir + "/base.ust1";
  URBANE_RETURN_IF_ERROR(
      store::WritePointStore(inputs.trips, inputs.store_path).status());
  return inputs;
}

// One client per CPU on saturate, one elsewhere. The server gets one
// worker per client: an idle extra worker adds nothing but a thread whose
// allocator arena may or may not hold the last frame's freed buffers
// (ingest_live peak RSS spread over 201-265 MiB with a worker per CPU,
// 186-193 MiB with one).
int Clients(Workload workload) {
  return workload == Workload::kSaturate ? Nproc() : 1;
}

const char* WorkloadMethod(Workload workload) {
  switch (workload) {
    case Workload::kExplore:
      return "raster";
    case Workload::kSaturate:
      return "auto";
    case Workload::kSelective:
    case Workload::kIngestLive:
      return "accurate";
  }
  return "accurate";
}

// ---------------------------------------------------------------------------
// HTTP client.

std::string HttpPost(const std::string& target, const std::string& body) {
  return "POST " + target +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string QueryTarget(bool profile) {
  return profile ? "/v1/query?profile=1" : "/v1/query";
}

struct Reply {
  int status = 0;  // 0: transport error
  double rtt_ms = 0.0;
  std::string body;
};

// One request on a fresh loopback connection (the server closes every
// connection after its response).
Reply Exchange(std::uint16_t port, const std::string& request) {
  Reply reply;
  const Clock::time_point begin = Clock::now();
  StatusOr<int> fd = net::ConnectLoopback(port);
  if (fd.ok()) {
    net::SetSocketTimeouts(*fd, kClientTimeoutMs, kClientTimeoutMs);
    std::string response;
    if (net::SendAll(*fd, request).ok() &&
        net::RecvAll(*fd, &response).ok() && response.size() > 12) {
      reply.status = std::atoi(response.c_str() + 9);
      const std::size_t split = response.find("\r\n\r\n");
      if (split != std::string::npos) reply.body = response.substr(split + 4);
    }
    net::CloseSocket(*fd);
  }
  reply.rtt_ms = MsBetween(begin, Clock::now());
  return reply;
}

// The `"watermark":N` member of a result or ingest document; -1 if absent.
std::int64_t Watermark(const std::string& body) {
  const std::size_t at = body.find("\"watermark\":");
  if (at == std::string::npos) return -1;
  return std::strtoll(body.c_str() + at + 12, nullptr, 10);
}

bool LooksLikeResult(const std::string& body) {
  return body.find("\"schema\":\"urbane.result.v1\"") != std::string::npos;
}

// ---------------------------------------------------------------------------
// Deployment: the program, set up from the inputs.

struct Deployment {
  std::unique_ptr<app::DatasetManager> manager;
  std::unique_ptr<app::DatasetManagerBackend> backend;
  std::unique_ptr<server::QueryServer> server;
  core::SpatialAggregation* engine = nullptr;  // null for ingest_live
  std::string live_dir;
  double setup_s = 0.0;
  double store_open_ms = 0.0;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    if (server != nullptr) server->Stop();
    server.reset();
    backend.reset();
    manager.reset();
    if (!live_dir.empty()) {
      std::error_code ignored;
      fs::remove_all(live_dir, ignored);
    }
    // Hand freed pages back, so the next set-up's peak RSS starts clean.
    malloc_trim(0);
  }

  std::uint16_t port() const { return server->port(); }
};

// Registers the inputs (`trips` and `hoods` are consumed), opens the
// store and live table, starts the server and warms the workload's
// executor with one request outside the measured sequence.
StatusOr<std::unique_ptr<Deployment>> Deploy(const Options& options,
                                             const Inputs& inputs,
                                             data::PointTable trips,
                                             data::RegionSet hoods,
                                             const std::string& live_dir) {
  auto deployment = std::make_unique<Deployment>();
  Deployment& d = *deployment;
  const Clock::time_point begin = Clock::now();
  d.manager = std::make_unique<app::DatasetManager>();
  if (options.workload == Workload::kIngestLive) {
    const Clock::time_point open_begin = Clock::now();
    URBANE_RETURN_IF_ERROR(
        d.manager->AddStoreDataset(kPointsName, inputs.store_path));
    d.store_open_ms = MsBetween(open_begin, Clock::now());
    d.live_dir = live_dir;
    URBANE_RETURN_IF_ERROR(d.manager->EnableIngest(kPointsName, live_dir));
  } else {
    URBANE_RETURN_IF_ERROR(
        d.manager->AddPointDataset(kPointsName, std::move(trips)));
  }
  URBANE_RETURN_IF_ERROR(
      d.manager->AddRegionLayer(kRegionsName, std::move(hoods)));
  if (options.workload == Workload::kExplore) {
    d.manager->set_engine_shards(static_cast<std::size_t>(Nproc()));
  }
  if (options.workload == Workload::kIngestLive) {
    URBANE_ASSIGN_OR_RETURN(ingest::LiveEngine * live,
                            d.manager->Live(kPointsName, kRegionsName));
    live->set_result_cache_capacity(kCacheEntries);
  } else {
    core::RasterJoinOptions raster;
    raster.resolution = kCanvas;
    URBANE_ASSIGN_OR_RETURN(
        d.engine, d.manager->Engine(kPointsName, kRegionsName, raster));
    d.engine->set_result_cache_capacity(kCacheEntries);
  }
  d.backend = std::make_unique<app::DatasetManagerBackend>(d.manager.get());
  server::QueryServerOptions server_options;
  server_options.worker_threads = Clients(options.workload);
  server_options.client_timeout_ms = kClientTimeoutMs;
  d.server =
      std::make_unique<server::QueryServer>(d.backend.get(), server_options);
  URBANE_RETURN_IF_ERROR(d.server->Start());
  const Reply warm = Exchange(
      d.port(), HttpPost(QueryTarget(false),
                         QueryBody(WarmupFrame(WorkloadMethod(
                             options.workload)))));
  if (warm.status != 200) {
    return Status::Internal("warm-up request failed with HTTP " +
                            std::to_string(warm.status) + ": " + warm.body);
  }
  d.setup_s = MsBetween(begin, Clock::now()) / 1e3;
  return deployment;
}

// ---------------------------------------------------------------------------
// Measured phase.

/// A response kept for the answer check.
struct KeptAnswer {
  Frame frame;
  std::string body;
};

struct ClientLog {
  std::vector<double> frame_ms;   // kMissedSample for refused / failed
  std::vector<double> append_ms;  // likewise
  OpTally frames;
  OpTally appends;
  OpTally checks;  // ingest_live: post-compaction COUNT checks
  std::vector<KeptAnswer> kept;
  std::vector<TracedExchange> traced;
  Clock::time_point end;
  // ingest_live
  std::vector<std::pair<std::size_t, std::size_t>> acked_batches;
  std::vector<double> flush_ms;
  std::vector<double> compact_ms;
  std::map<std::string, std::uint64_t> file_bytes;  // live dir, max seen
  std::uint64_t manifest_bytes = 0;
};

void RecordExchange(bool traced, bool append, const Frame* frame,
                    const std::string& request, const Reply& reply,
                    double sent_ms, std::uint64_t components,
                    ClientLog& log) {
  if (!traced) return;
  TracedExchange exchange;
  exchange.append = append;
  exchange.start_ms = sent_ms;
  exchange.rtt_ms = reply.rtt_ms;
  exchange.status = reply.status;
  exchange.request = request;
  exchange.body = reply.body;
  if (frame != nullptr) exchange.method = frame->method;
  exchange.components = components;
  log.traced.push_back(std::move(exchange));
}

// Sends one query frame and books it.
Reply SendFrame(std::uint16_t port, bool traced, const Frame& frame,
                Clock::time_point phase_begin, std::uint64_t components,
                ClientLog& log) {
  const std::string request =
      HttpPost(QueryTarget(traced), QueryBody(frame));
  const double sent_ms = MsBetween(phase_begin, Clock::now());
  Reply reply = Exchange(port, request);
  const bool ok = reply.status == 200 && LooksLikeResult(reply.body);
  log.frames.Record(reply.status == 200 && !ok ? 500 : reply.status);
  log.frame_ms.push_back(ok ? reply.rtt_ms : kMissedSample);
  RecordExchange(traced, false, &frame, request, reply, sent_ms, components,
                 log);
  return reply;
}

void RunReadClient(std::uint16_t port, bool traced, std::size_t max_kept,
                   const std::vector<Frame>& frames,
                   Clock::time_point phase_begin, Clock::time_point deadline,
                   ClientLog& log) {
  for (std::size_t i = 0; i < frames.size() && Clock::now() < deadline; ++i) {
    const Reply reply =
        SendFrame(port, traced, frames[i], phase_begin, 0, log);
    if (i % kSampleEvery == 0 && log.kept.size() < max_kept &&
        reply.status == 200) {
      log.kept.push_back({frames[i], reply.body});
    }
  }
  log.end = Clock::now();
}

// Renders rows [begin, end) of `rows` as a POST /v1/ingest body. Nine
// significant digits round-trip every float32 exactly.
std::string IngestBody(const data::PointTable& rows, std::size_t begin,
                       std::size_t end) {
  std::string body =
      "{\"dataset\": \"" + std::string(kPointsName) + "\", \"rows\": [";
  char cell[48];
  for (std::size_t r = begin; r < end; ++r) {
    if (r > begin) body += ",";
    std::snprintf(cell, sizeof(cell), "[%.9g,%.9g,%lld",
                  static_cast<double>(rows.x(r)),
                  static_cast<double>(rows.y(r)),
                  static_cast<long long>(rows.t(r)));
    body += cell;
    for (std::size_t a = 0; a < rows.schema().attribute_count(); ++a) {
      std::snprintf(cell, sizeof(cell), ",%.9g",
                    static_cast<double>(rows.attribute(r, a)));
      body += cell;
    }
    body += "]";
  }
  body += "]}";
  return body;
}

// Sends one append of rows [begin, end) and books it; returns the reply.
Reply SendAppend(std::uint16_t port, bool traced, const data::PointTable& rows,
                 std::size_t begin, std::size_t end,
                 Clock::time_point phase_begin, ClientLog& log) {
  const std::string request =
      HttpPost("/v1/ingest", IngestBody(rows, begin, end));
  const double sent_ms = MsBetween(phase_begin, Clock::now());
  Reply reply = Exchange(port, request);
  log.appends.Record(reply.status);
  log.append_ms.push_back(reply.status == 200 ? reply.rtt_ms : kMissedSample);
  RecordExchange(traced, true, nullptr, request, reply, sent_ms, 0, log);
  return reply;
}

// Storage-write accounting for the traced run: the largest size each live
// file reached (WAL segments grow, then vanish at flush), plus one
// manifest image per commit.
void ScanLiveDir(const std::string& dir, ClientLog& log, bool commit) {
  std::error_code error;
  for (const auto& entry : fs::directory_iterator(dir, error)) {
    const std::string name = entry.path().filename().string();
    const std::uint64_t size = entry.file_size(error);
    if (error) continue;
    if (name == "MANIFEST.json") {
      if (commit) log.manifest_bytes += size;
      continue;
    }
    std::uint64_t& seen = log.file_bytes[name];
    seen = std::max(seen, size);
  }
}

std::uint64_t LiveComponents(app::DatasetManager& manager) {
  const StatusOr<ingest::IngestStats> stats =
      manager.IngestStatsFor(kPointsName);
  if (!stats.ok()) return 0;
  return (stats->base_rows > 0 ? 1 : 0) + stats->sealed_runs +
         stats->store_runs + (stats->hot_rows > 0 ? 1 : 0);
}

void RunLiveClient(Deployment& d, bool traced, const Inputs& inputs,
                   const LiveSchedule& schedule,
                   Clock::time_point phase_begin, Clock::time_point deadline,
                   ClientLog& log) {
  const std::uint64_t base_rows = inputs.trips.size();
  std::uint64_t acked = 0;
  const auto check_watermark = [&](const Reply& reply, OpTally& tally) {
    if (reply.status == 200 &&
        Watermark(reply.body) != static_cast<std::int64_t>(base_rows + acked)) {
      tally.RecordMismatch();
    }
  };
  for (std::size_t b = 0;
       b < schedule.steps.size() && Clock::now() < deadline; ++b) {
    const LiveStep& step = schedule.steps[b];
    const std::size_t begin = b * schedule.batch_rows;
    const std::size_t end =
        std::min(begin + schedule.batch_rows, inputs.stream.size());
    const Reply appended =
        SendAppend(d.port(), traced, inputs.stream, begin, end, phase_begin,
                   log);
    if (appended.status == 200) {
      acked += end - begin;
      log.acked_batches.emplace_back(begin, end);
    }
    check_watermark(appended, log.appends);
    // Frames of step 0 and of every compaction step are kept for the
    // answer check: their watermark is the one the check after the
    // compaction sees.
    const bool keep = b == 0 || step.compact;
    for (const Frame& frame : step.frames) {
      const std::uint64_t components =
          traced ? LiveComponents(*d.manager) : 0;
      const Reply reply =
          SendFrame(d.port(), traced, frame, phase_begin, components, log);
      check_watermark(reply, log.frames);
      if (keep && reply.status == 200) log.kept.push_back({frame, reply.body});
    }
    if (step.flush) {
      if (traced) ScanLiveDir(d.live_dir, log, false);
      const Clock::time_point flush_begin = Clock::now();
      const Status flushed = d.manager->FlushIngest(kPointsName);
      log.flush_ms.push_back(MsBetween(flush_begin, Clock::now()));
      if (!flushed.ok()) log.checks.Record(0);
      if (traced) ScanLiveDir(d.live_dir, log, true);
    }
    if (step.compact) {
      const Clock::time_point compact_begin = Clock::now();
      const Status compacted = d.manager->CompactIngest(kPointsName);
      log.compact_ms.push_back(MsBetween(compact_begin, Clock::now()));
      if (traced) ScanLiveDir(d.live_dir, log, true);
      if (!compacted.ok()) log.checks.Record(0);
      const Frame check = LiveCountCheck();
      const Reply reply = Exchange(
          d.port(), HttpPost(QueryTarget(false), QueryBody(check)));
      log.checks.Record(reply.status);
      check_watermark(reply, log.checks);
      if (reply.status == 200) log.kept.push_back({check, reply.body});
    }
  }
  log.end = Clock::now();
}

struct PhaseResult {
  std::vector<ClientLog> clients;
  Clock::time_point begin;
  double seconds = 0.0;
  ProcessUsage usage_before, usage_after;
  CpuTimes cpu_before, cpu_after;
  double peak_rss_mb = 0.0;
  /// Read-only workloads: share of sent frames that repeat an earlier one.
  double repeat_share = 0.0;
};

PhaseResult RunPhase(const Options& options, Deployment& d,
                     const Inputs& inputs, bool traced) {
  PhaseResult phase;
  const int clients = Clients(options.workload);
  phase.clients.resize(static_cast<std::size_t>(clients));
  // Sequences long enough that no client runs out before the deadline.
  const std::size_t length =
      static_cast<std::size_t>(options.seconds) * 400 + 100;
  std::vector<std::vector<Frame>> traces;
  LiveSchedule live;
  switch (options.workload) {
    case Workload::kExplore:
      traces.push_back(ExploreTrace(options.seed, length));
      break;
    case Workload::kSelective:
      traces.push_back(SelectiveTrace(options.seed, length));
      break;
    case Workload::kSaturate:
      traces = SaturateTraces(options.seed, clients, length);
      break;
    case Workload::kIngestLive: {
      // The whole stream, so that every run ends on the same component
      // stack (the compacted run grows with the stream, and with it the
      // memory of its engine); --seconds only caps the phase.
      std::vector<std::int64_t> heads;
      const std::size_t rows = inputs.stream.size();
      for (std::size_t begin = 0; begin < rows; begin += kBatchRows) {
        const std::size_t end = std::min(begin + kBatchRows, rows);
        heads.push_back(inputs.stream.t(end - 1));
      }
      live = IngestLiveSchedule(options.seed, heads, kBatchRows, kFlushEvery,
                                kCompactEvery);
      break;
    }
  }

  phase.usage_before = ReadProcessUsage();
  phase.cpu_before = ReadCpuTimes();
  phase.begin = Clock::now();
  const Clock::time_point deadline =
      phase.begin + std::chrono::seconds(options.seconds);
  if (options.workload == Workload::kIngestLive) {
    RunLiveClient(d, traced, inputs, live, phase.begin, deadline,
                  phase.clients[0]);
  } else {
    std::vector<std::thread> threads;
    const std::size_t max_kept = std::max<std::size_t>(
        1, kMaxSamples / static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        RunReadClient(d.port(), traced, max_kept,
                      traces[static_cast<std::size_t>(c)], phase.begin,
                      deadline, phase.clients[static_cast<std::size_t>(c)]);
      });
    }
    for (std::thread& thread : threads) thread.join();
    std::vector<Frame> sent;
    for (std::size_t c = 0; c < traces.size(); ++c) {
      const std::size_t count = phase.clients[c].frame_ms.size();
      sent.insert(sent.end(), traces[c].begin(),
                  traces[c].begin() + static_cast<std::ptrdiff_t>(count));
    }
    phase.repeat_share = RepeatShare(sent);
  }
  Clock::time_point end = phase.begin;
  for (const ClientLog& log : phase.clients) end = std::max(end, log.end);
  phase.seconds = MsBetween(phase.begin, end) / 1e3;
  phase.usage_after = ReadProcessUsage();
  phase.cpu_after = ReadCpuTimes();
  phase.peak_rss_mb = PeakRssMiB();
  return phase;
}

// ---------------------------------------------------------------------------
// Answer checks.

bool SameValue(double expected, const data::JsonValue* got) {
  if (got == nullptr) return false;
  if (!std::isfinite(expected)) return got->is_null();
  if (!got->is_number()) return false;
  const double value = got->AsNumber();
  const double scale = std::max(std::fabs(expected), std::fabs(value));
  return std::fabs(value - expected) <= 1e-6 * std::max(scale, 1e-300) ||
         value == expected;
}

// Compares one kept response with `reference` running the method the
// response reports; false on any count or value mismatch.
bool CheckAnswer(const KeptAnswer& kept, core::SpatialAggregation& reference) {
  StatusOr<data::JsonValue> doc = data::ParseJson(kept.body);
  StatusOr<core::ParsedQuery> parsed = core::ParseQuerySql(kept.frame.sql);
  if (!doc.ok() || !parsed.ok()) return false;
  const data::JsonValue* method_name = doc->Find("method");
  if (method_name == nullptr || !method_name->is_string()) return false;
  StatusOr<std::optional<core::ExecutionMethod>> method =
      server::ParseMethodName(method_name->AsString());
  if (!method.ok() || !method->has_value()) return false;
  core::AggregationQuery query;
  query.aggregate = parsed->aggregate;
  query.filter = parsed->filter;
  StatusOr<core::QueryResult> expected =
      reference.Execute(std::move(query), **method);
  const data::JsonValue* regions = doc->Find("regions");
  if (!expected.ok() || regions == nullptr || !regions->is_array() ||
      regions->AsArray().size() != expected->size()) {
    return false;
  }
  for (std::size_t r = 0; r < expected->size(); ++r) {
    const data::JsonValue& region = regions->AsArray()[r];
    const data::JsonValue* count = region.Find("count");
    if (count == nullptr || !count->is_number() ||
        count->AsNumber() != static_cast<double>(expected->counts[r]) ||
        !SameValue(expected->values[r], region.Find("value"))) {
      return false;
    }
  }
  return true;
}

// Checks every kept answer; returns the mismatch count.
std::uint64_t CheckAnswers(const Options& options, Deployment& d,
                           const Inputs& inputs, PhaseResult& phase) {
  std::uint64_t mismatches = 0;
  const StatusOr<const data::RegionSet*> hoods =
      d.manager->RegionLayer(kRegionsName);
  if (!hoods.ok()) return 1;
  if (options.workload != Workload::kIngestLive) {
    const StatusOr<const data::PointTable*> trips =
        d.manager->PointDataset(kPointsName);
    if (!trips.ok()) return 1;
    core::RasterJoinOptions raster;
    raster.resolution = kCanvas;
    core::SpatialAggregation reference(**trips, **hoods, raster);
    for (ClientLog& log : phase.clients) {
      for (const KeptAnswer& kept : log.kept) {
        if (!CheckAnswer(kept, reference)) {
          ++mismatches;
          log.frames.RecordMismatch();
        }
      }
    }
    return mismatches;
  }
  // ingest_live: a stop-the-world engine over the rows acknowledged up to
  // each kept watermark (base rows, then the acknowledged batches).
  ClientLog& log = phase.clients[0];
  std::map<std::int64_t, std::vector<const KeptAnswer*>> by_watermark;
  for (const KeptAnswer& kept : log.kept) {
    by_watermark[Watermark(kept.body)].push_back(&kept);
  }
  const data::PointTable& stream = inputs.stream;
  for (const auto& [watermark, answers] : by_watermark) {
    data::PointTable rows = inputs.trips;
    std::int64_t have = static_cast<std::int64_t>(rows.size());
    for (const auto& [begin, end] : log.acked_batches) {
      if (have >= watermark) break;
      for (std::size_t r = begin; r < end; ++r) {
        std::vector<float> attributes;
        for (std::size_t a = 0; a < stream.schema().attribute_count(); ++a) {
          attributes.push_back(stream.attribute(r, a));
        }
        (void)rows.AppendRow(stream.x(r), stream.y(r), stream.t(r),
                             attributes);
      }
      have += static_cast<std::int64_t>(end - begin);
    }
    core::RasterJoinOptions raster;
    raster.resolution = kCanvas;
    core::SpatialAggregation reference(rows, **hoods, raster);
    for (const KeptAnswer* kept : answers) {
      const bool is_check = kept->frame.sql == LiveCountCheck().sql &&
                            kept->frame.method == LiveCountCheck().method;
      if (watermark != have || !CheckAnswer(*kept, reference)) {
        ++mismatches;
        (is_check ? log.checks : log.frames).RecordMismatch();
      }
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Totals {
  OpTally frames, appends, checks;
  std::vector<double> frame_ms, append_ms;
  std::size_t kept = 0;
};

Totals Gather(const PhaseResult& phase) {
  Totals totals;
  for (const ClientLog& log : phase.clients) {
    totals.frames.Merge(log.frames);
    totals.appends.Merge(log.appends);
    totals.checks.Merge(log.checks);
    totals.frame_ms.insert(totals.frame_ms.end(), log.frame_ms.begin(),
                           log.frame_ms.end());
    totals.append_ms.insert(totals.append_ms.end(), log.append_ms.begin(),
                            log.append_ms.end());
    totals.kept += log.kept.size();
  }
  return totals;
}

void PrintDiagnostics(const Options& options, const PhaseResult& phase,
                      const Totals& totals, std::uint64_t mismatches) {
  const double frames = static_cast<double>(std::max<std::uint64_t>(
      totals.frames.attempted, 1));
  std::printf("workload %s seed %llu: %.3f s measured, %d client(s)\n",
              WorkloadName(options.workload),
              static_cast<unsigned long long>(options.seed), phase.seconds,
              static_cast<int>(phase.clients.size()));
  std::printf("%s\n", TallyLine("frames", totals.frames).c_str());
  if (options.workload == Workload::kIngestLive) {
    std::printf("%s\n", TallyLine("appends", totals.appends).c_str());
    std::printf("%s\n", TallyLine("compaction checks", totals.checks).c_str());
    std::printf("append_p50_ms=%s over %zu appends (not gated)\n",
                FormatNumber(Percentile(totals.append_ms, 50),
                             kClientTimeoutMs)
                    .c_str(),
                totals.append_ms.size());
  }
  std::size_t over_limit = 0;
  for (double ms : totals.frame_ms) over_limit += ms > kLatencyLimitMs;
  std::printf(
      "answer checks: %zu responses compared, %llu mismatches\n", totals.kept,
      static_cast<unsigned long long>(mismatches));
  std::printf(
      "diagnostics (not gated): frame_p99_ms=%s over %zu samples, "
      "frames_over_%.0fms=%zu, repeat_share=%s, cpu_ms_per_frame=%.3f, "
      "minor_faults_per_frame=%.1f, steal_pct=%.2f\n",
      FormatNumber(Percentile(totals.frame_ms, 99), kClientTimeoutMs).c_str(),
      totals.frame_ms.size(), kLatencyLimitMs, over_limit,
      options.workload == Workload::kIngestLive
          ? "n/a"
          : FormatNumber(phase.repeat_share).c_str(),
      (phase.usage_after.cpu_ms - phase.usage_before.cpu_ms) / frames,
      static_cast<double>(phase.usage_after.minor_faults -
                          phase.usage_before.minor_faults) / frames,
      StealPercent(phase.cpu_before, phase.cpu_after));
}

// The gated metrics.
std::vector<Metric> EndToEndMetrics(const PhaseResult& phase,
                                    const Totals& totals, double setup_s) {
  return {
      {"frame_p50_ms", Percentile(totals.frame_ms, 50), "ms"},
      {"frame_p90_ms", Percentile(totals.frame_ms, 90), "ms"},
      {"throughput_fps",
       static_cast<double>(totals.frames.ok) / std::max(phase.seconds, 1e-9),
       "1/s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", phase.peak_rss_mb, "MiB"},
  };
}

std::string FreshDir(const std::string& path) {
  std::error_code ignored;
  fs::remove_all(path, ignored);
  fs::create_directories(path, ignored);
  return path;
}

// Prints the metrics and, last, the JSON result line.
void PrintResult(const Totals& totals, std::uint64_t mismatches,
                 const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("  %-32s %14s %s\n", metric.name.c_str(),
                FormatNumber(metric.value, kClientTimeoutMs).c_str(),
                metric.unit.c_str());
  }
  const std::uint64_t attempted = totals.frames.attempted +
                                  totals.appends.attempted +
                                  totals.checks.attempted;
  const std::uint64_t failed = totals.frames.not_ok() +
                               totals.appends.not_ok() +
                               totals.checks.not_ok();
  std::printf("%s\n", ResultLine(mismatches == 0, attempted, failed, metrics,
                                 kClientTimeoutMs)
                          .c_str());
}

using DeployFn =
    std::function<StatusOr<std::unique_ptr<Deployment>>(bool last_use)>;

// kSetupRepeats set-ups (setup_s is their median); the last one serves
// the measured phase.
Status RunEndToEnd(const Options& options, const Inputs& inputs,
                   const DeployFn& deploy) {
  std::vector<double> setups;
  for (int i = 0; i + 1 < kSetupRepeats; ++i) {
    URBANE_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d, deploy(false));
    setups.push_back(d->setup_s);
  }
  // Peak RSS covers the final set-up and the measured phase only.
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "peak RSS could not be reset; peak_rss_mb "
                         "includes the earlier set-ups\n");
  }
  URBANE_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d, deploy(true));
  setups.push_back(d->setup_s);
  PhaseResult phase = RunPhase(options, *d, inputs, false);
  const std::uint64_t mismatches = CheckAnswers(options, *d, inputs, phase);
  const Totals totals = Gather(phase);
  PrintDiagnostics(options, phase, totals, mismatches);
  std::printf("setup_s samples:");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  PrintResult(totals, mismatches,
              EndToEndMetrics(phase, totals, Percentile(setups, 50)));
  return Status::OK();
}

// The plain replay, then the profiled replay, each on a fresh deployment.
Status RunTraced(const Options& options, const Inputs& inputs,
                 const DeployFn& deploy) {
  PhaseResult plain;
  {
    URBANE_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d, deploy(false));
    plain = RunPhase(options, *d, inputs, false);
  }
  URBANE_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d, deploy(false));
  // The program's own metrics switch also clocks the accurate join's
  // refine pass, which ?profile=1 alone leaves at zero.
  obs::SetMetricsEnabled(true);
  PhaseResult traced = RunPhase(options, *d, inputs, true);
  obs::SetMetricsEnabled(false);
  const std::uint64_t mismatches = CheckAnswers(options, *d, inputs, traced);
  const Totals totals = Gather(traced);
  PrintDiagnostics(options, traced, totals, mismatches);

  LayerInputs layer_inputs;
  if (options.workload == Workload::kSaturate) layer_inputs.engine = d->engine;
  layer_inputs.store_open_ms = d->store_open_ms;
  if (const auto trips = d->manager->PointDataset(kPointsName); trips.ok()) {
    layer_inputs.table_rows = (*trips)->size();
  }
  std::vector<TracedExchange> exchanges;
  for (ClientLog& log : traced.clients) {
    for (TracedExchange& exchange : log.traced) {
      exchanges.push_back(std::move(exchange));
    }
    layer_inputs.flush_ms.insert(layer_inputs.flush_ms.end(),
                                 log.flush_ms.begin(), log.flush_ms.end());
    layer_inputs.compact_ms.insert(layer_inputs.compact_ms.end(),
                                   log.compact_ms.begin(),
                                   log.compact_ms.end());
    for (const auto& [name, bytes] : log.file_bytes) {
      layer_inputs.storage_bytes_written += bytes;
    }
    layer_inputs.storage_bytes_written += log.manifest_bytes;
    for (const auto& [begin, end] : log.acked_batches) {
      layer_inputs.bytes_appended += (end - begin) * kRowBytes;
    }
  }
  std::vector<Span> spans;
  std::vector<Metric> metrics = AnalyzeLayers(exchanges, layer_inputs, &spans);
  const double frames =
      static_cast<double>(std::max<std::uint64_t>(totals.frames.attempted, 1));
  const double plain_p50 = Percentile(Gather(plain).frame_ms, 50);
  const double traced_p50 = Percentile(totals.frame_ms, 50);
  metrics.push_back(
      {"process.cpu_ms_per_frame",
       (traced.usage_after.cpu_ms - traced.usage_before.cpu_ms) / frames,
       "ms"});
  metrics.push_back({"process.minor_faults_per_frame",
                     static_cast<double>(traced.usage_after.minor_faults -
                                         traced.usage_before.minor_faults) /
                         frames,
                     "count"});
  metrics.push_back({"process.steal_pct",
                     StealPercent(traced.cpu_before, traced.cpu_after), "%"});
  metrics.push_back(
      {"client.frame_p99_ms", Percentile(totals.frame_ms, 99), "ms"});
  metrics.push_back({"client.frame_samples",
                     static_cast<double>(totals.frame_ms.size()), "count"});
  metrics.push_back(
      {"client.append_p50_ms", Percentile(totals.append_ms, 50), "ms"});
  metrics.push_back(
      {"trace.overhead_pct",
       plain_p50 > 0 ? 100.0 * (traced_p50 - plain_p50) / plain_p50 : 0.0,
       "%"});
  const std::string span_path = options.out_dir + "/spans-" +
                                WorkloadName(options.workload) + "-" +
                                std::to_string(options.seed) + ".jsonl";
  if (!WriteSpans(span_path, spans)) {
    return Status::IoError("could not write " + span_path);
  }
  std::printf("spans: %zu written to %s\n", spans.size(), span_path.c_str());
  PrintResult(totals, mismatches, metrics);
  return Status::OK();
}

int Run(const Options& options) {
  const std::string work_dir =
      FreshDir(options.out_dir + "/work-" + WorkloadName(options.workload) +
               "-" + std::to_string(::getpid()));
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
    }
  } cleanup{work_dir};

  StatusOr<Inputs> prepared = PrepareInputs(options, work_dir);
  if (!prepared.ok()) {
    std::fprintf(stderr, "input preparation failed: %s\n",
                 prepared.status().ToString().c_str());
    return 1;
  }
  Inputs& inputs = *prepared;
  int generation = 0;
  const DeployFn deploy = [&](bool last_use) {
    ++generation;
    // The final deployment takes the generated table itself; earlier ones
    // take copies, made before the set-up clock starts. ingest_live reads
    // its base from the store file.
    data::PointTable trips;
    if (options.workload != Workload::kIngestLive) {
      trips = last_use ? std::move(inputs.trips) : inputs.trips;
    }
    return Deploy(options, inputs, std::move(trips), inputs.hoods,
                  FreshDir(work_dir + "/live-" + std::to_string(generation)));
  };
  const Status status = options.trace ? RunTraced(options, inputs, deploy)
                                      : RunEndToEnd(options, inputs, deploy);
  if (!status.ok()) {
    std::fprintf(stderr, "benchmark failed: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace urbane::perfbench

int main(int argc, char** argv) {
  urbane::perfbench::Options options;
  if (!urbane::perfbench::ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: urbane_perfbench --workload "
                 "<explore|selective|saturate|ingest_live> --seed N "
                 "--seconds S --trace 0|1 --out-dir DIR\n");
    return 2;
  }
  return urbane::perfbench::Run(options);
}
