// Server load — closed-loop, overload, and shard-scaling benchmarks for
// the HTTP/JSON query server (src/server). C client threads each run their
// own connect → POST /v1/query → read-response loop against one server.
//
// Tables:
//   server_load        per-concurrency throughput + client latency
//                      percentiles, and an overload row demonstrating 429
//                      shedding with a deliberately tiny admission queue.
//   server_load_shards closed-loop throughput with the backend engines
//                      fanned out over M shards (scatter-gather layer,
//                      src/shard) — the near-linear-QPS axis. `--shards M`
//                      pins the sweep to one fan-out.
//
// Latencies live in a per-phase util::LatencyRecorder: each scenario
// summarizes and then Reset()s, so one phase's tail can never bleed into
// the next phase's p99 (the bug class tests/util/latency_test.cc pins).
// Client latencies also feed the `server.client.wall_seconds` histogram so
// bench_report's trajectory carries them alongside the server-side
// `server.request.wall_seconds`.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "data/region_generator.h"
#include "data/taxi_generator.h"
#include "net/http.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "server/query_server.h"
#include "urbane/dataset_manager.h"
#include "urbane/server_backend.h"
#include "util/latency.h"
#include "util/timer.h"

namespace {

using namespace urbane;

struct ClientStats {
  LatencyRecorder latencies_ms;
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;  // 429
  std::uint64_t failed = 0;      // anything else
};

std::string PostQueryRequest(const std::string& sql) {
  const std::string body = "{\"sql\": \"" + sql + "\"}";
  return "POST /v1/query HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

// One request over a fresh connection; returns the HTTP status (0 on
// transport failure).
int RunOnce(std::uint16_t port, const std::string& request) {
  StatusOr<int> fd = net::ConnectLoopback(port);
  if (!fd.ok()) return 0;
  net::SetSocketTimeouts(*fd, 10'000, 10'000);
  std::string response;
  int status = 0;
  if (net::SendAll(*fd, request).ok() &&
      net::RecvAll(*fd, &response).ok() && response.size() >= 12) {
    status = std::atoi(response.c_str() + 9);
  }
  net::CloseSocket(*fd);
  return status;
}

ClientStats RunClosedLoop(std::uint16_t port, int concurrency,
                          int requests_per_client, const std::string& sql) {
  const std::string request = PostQueryRequest(sql);
  // One stats block (and so one latency recorder) per client thread, then
  // one fold into a per-PHASE total: every call to RunClosedLoop starts
  // from empty recorders, which is what keeps scenario percentiles
  // independent.
  std::vector<ClientStats> per_client(concurrency);
  std::vector<std::thread> clients;
  clients.reserve(concurrency);
  for (int c = 0; c < concurrency; ++c) {
    clients.emplace_back([&, c] {
      ClientStats& stats = per_client[c];
      for (int i = 0; i < requests_per_client; ++i) {
        WallTimer timer;
        const int status = RunOnce(port, request);
        const double ms = timer.ElapsedMillis();
        if (status == 200) {
          ++stats.ok;
          stats.latencies_ms.Record(ms);
        } else if (status == 429) {
          ++stats.overloaded;
        } else {
          ++stats.failed;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ClientStats total;
  for (ClientStats& stats : per_client) {
    total.ok += stats.ok;
    total.overloaded += stats.overloaded;
    total.failed += stats.failed;
    total.latencies_ms.Merge(stats.latencies_ms);
  }
  return total;
}

// Shared row shape for both tables' closed-loop scenarios; `trailing`
// appends table-specific columns (the shard table's fan-out).
void AddLoadRow(bench::ResultTable& table, const std::string& scenario,
                int clients, const ClientStats& stats, double elapsed,
                std::vector<std::string> trailing = {}) {
  const LatencySummary lat = stats.latencies_ms.Summarize();
  const std::uint64_t total = stats.ok + stats.overloaded + stats.failed;
  std::vector<std::string> row = {
      scenario, bench::ResultTable::Cell("%d", clients),
      bench::ResultTable::Cell("%llu", (unsigned long long)total),
      bench::ResultTable::Cell("%llu", (unsigned long long)stats.ok),
      bench::ResultTable::Cell("%llu", (unsigned long long)stats.overloaded),
      bench::ResultTable::Cell("%llu", (unsigned long long)stats.failed),
      bench::ResultTable::Cell("%.0f",
                               elapsed > 0 ? stats.ok / elapsed : 0.0),
      bench::ResultTable::Cell("%.2f", lat.p50),
      bench::ResultTable::Cell("%.2f", lat.p95),
      bench::ResultTable::Cell("%.2f", lat.p99)};
  for (std::string& cell : trailing) row.push_back(std::move(cell));
  table.AddRow(std::move(row));
}

}  // namespace

int main(int argc, char** argv) {
  // --shards M pins the shard sweep to a single fan-out; default sweeps
  // {1, 2, 4, 8}.
  std::vector<std::size_t> shard_sweep = {1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      const long m = std::atol(argv[++i]);
      if (m < 1) {
        std::fprintf(stderr, "--shards wants a positive integer\n");
        return 1;
      }
      shard_sweep = {static_cast<std::size_t>(m)};
    } else {
      std::fprintf(stderr, "usage: %s [--shards M]\n", argv[0]);
      return 1;
    }
  }

  bench::PrintHeader(
      "server_load",
      "HTTP/JSON query server under closed-loop load: C client threads x "
      "M requests each, fresh connection per request; an overload scenario "
      "(queue 2) demonstrating 429 shedding; and a shard-scaling sweep "
      "with the engines fanned out over --shards M.");
  obs::SetMetricsEnabled(true);

  app::DatasetManager manager;
  data::TaxiGeneratorOptions taxi_options;
  taxi_options.num_trips = bench::ScaledCount(200'000);
  std::printf("generating %zu trips...\n", taxi_options.num_trips);
  if (const Status status = manager.AddPointDataset(
          "taxi", data::GenerateTaxiTrips(taxi_options));
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  if (const Status status =
          manager.AddRegionLayer("nbhd", data::GenerateNeighborhoods());
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  app::DatasetManagerBackend backend(&manager);

  const std::string sql = "SELECT COUNT(*) FROM taxi, nbhd";
  const int requests_per_client =
      static_cast<int>(bench::ScaledCount(50));
  obs::Histogram& client_hist = obs::MetricsRegistry::Global().GetHistogram(
      "server.client.wall_seconds");

  bench::ResultTable table(
      "server_load",
      {"scenario", "clients", "requests", "ok", "throttled_429", "failed",
       "rps", "p50_ms", "p95_ms", "p99_ms"});

  for (const int concurrency : {1, 2, 4, 8}) {
    server::QueryServerOptions options;
    options.worker_threads = 4;
    options.max_queue_depth = 64;
    server::QueryServer server(&backend, options);
    if (const Status status = server.Start(); !status.ok()) {
      std::fprintf(stderr, "server: %s\n", status.ToString().c_str());
      return 1;
    }
    // Warm the engine (index/canvas builds) out of band so the table
    // measures serving, not first-touch preprocessing.
    RunOnce(server.port(), PostQueryRequest(sql));

    WallTimer wall;
    const ClientStats stats =
        RunClosedLoop(server.port(), concurrency, requests_per_client, sql);
    const double elapsed = wall.ElapsedSeconds();
    server.Stop();

    for (const double ms : stats.latencies_ms.samples()) {
      client_hist.Observe(ms / 1e3);
    }
    AddLoadRow(table, "closed_loop", concurrency, stats, elapsed);
  }

  // Overload: one slow worker, a queue of 2, and a 16-client burst — most
  // requests must be shed with 429, none may fail any other way.
  {
    server::QueryServerOptions options;
    options.worker_threads = 1;
    options.max_queue_depth = 2;
    server::QueryServer server(&backend, options);
    if (const Status status = server.Start(); !status.ok()) {
      std::fprintf(stderr, "server: %s\n", status.ToString().c_str());
      return 1;
    }
    RunOnce(server.port(), PostQueryRequest(sql));
    WallTimer wall;
    const ClientStats stats = RunClosedLoop(server.port(), 16, 8, sql);
    const double elapsed = wall.ElapsedSeconds();
    server.Stop();
    AddLoadRow(table, "overload_q2", 16, stats, elapsed);
  }

  const bool load_ok = table.Finish();

  // Shard scaling: same dataset, same SQL, 8 closed-loop clients, with the
  // backend's engines fanned out over M shards (scatter on the shared
  // pool, merge per core::PartialResult::Merge). Near-linear rps growth across
  // this table is the tentpole's throughput claim; correctness is pinned
  // separately by the shard conformance suite (bit-identical responses).
  bench::ResultTable shard_table(
      "server_load_shards",
      {"scenario", "clients", "requests", "ok", "throttled_429", "failed",
       "rps", "p50_ms", "p95_ms", "p99_ms", "shards"});
  for (const std::size_t shards : shard_sweep) {
    manager.set_engine_shards(shards);
    server::QueryServerOptions options;
    options.worker_threads = 4;
    options.max_queue_depth = 64;
    server::QueryServer server(&backend, options);
    if (const Status status = server.Start(); !status.ok()) {
      std::fprintf(stderr, "server: %s\n", status.ToString().c_str());
      return 1;
    }
    RunOnce(server.port(), PostQueryRequest(sql));
    WallTimer wall;
    const ClientStats stats =
        RunClosedLoop(server.port(), 8, requests_per_client, sql);
    const double elapsed = wall.ElapsedSeconds();
    server.Stop();
    AddLoadRow(shard_table, "sharded_closed_loop", 8, stats, elapsed,
               {bench::ResultTable::Cell("%zu", shards)});
  }
  manager.set_engine_shards(1);

  return (load_ok && shard_table.Finish()) ? 0 : 1;
}
