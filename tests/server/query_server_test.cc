// End-to-end tests for the concurrent HTTP/JSON query server. Two backends
// are used: the real DatasetManager adapter for round-trip fidelity
// (responses over the wire must match in-process execution bit for bit),
// and a gate-controlled fake whose queries block until released, which
// makes the admission-control, drain, and deadline schedules deterministic
// instead of timing-dependent.
#include "server/query_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/json.h"
#include "net/socket.h"
#include "obs/profile.h"
#include "server/json_api.h"
#include "testing/test_worlds.h"
#include "urbane/dataset_manager.h"
#include "urbane/server_backend.h"

namespace urbane::server {
namespace {

struct HttpReply {
  int status = 0;       // 0 on transport failure
  std::string headers;  // status line + headers
  std::string body;
};

HttpReply Fetch(std::uint16_t port, const std::string& raw_request) {
  HttpReply reply;
  StatusOr<int> fd = net::ConnectLoopback(port);
  if (!fd.ok()) return reply;
  net::SetSocketTimeouts(*fd, 10'000, 10'000);
  std::string response;
  if (net::SendAll(*fd, raw_request).ok() &&
      net::RecvAll(*fd, &response).ok() && response.size() >= 12) {
    reply.status = std::atoi(response.c_str() + 9);
    const std::size_t split = response.find("\r\n\r\n");
    if (split != std::string::npos) {
      reply.headers = response.substr(0, split);
      reply.body = response.substr(split + 4);
    }
  }
  net::CloseSocket(*fd);
  return reply;
}

HttpReply Post(std::uint16_t port, const std::string& path,
               const std::string& json) {
  return Fetch(port, "POST " + path + " HTTP/1.1\r\nHost: x\r\n" +
                         "Content-Length: " + std::to_string(json.size()) +
                         "\r\n\r\n" + json);
}

HttpReply Get(std::uint16_t port, const std::string& path) {
  return Fetch(port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
}

bool WaitFor(const std::function<bool()>& condition, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!condition()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// A backend whose queries block on a gate until Release() — or until
/// their QueryControl reports cancellation/deadline, mirroring how real
/// executors poll at pass boundaries. Lets tests freeze the worker pool in
/// a known state (N executing, M queued) with no sleeps-as-synchronization.
class GatedBackend : public QueryBackend {
 public:
  StatusOr<BackendResult> ExecuteSql(
      const std::string& sql, std::optional<core::ExecutionMethod> method,
      const core::QueryControl* control,
      obs::QueryProfile* profile) override {
    (void)sql;
    (void)method;
    (void)profile;
    active_.fetch_add(1, std::memory_order_acq_rel);
    Status verdict = Status::OK();
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (!released_) {
        if (control != nullptr) {
          verdict = control->Check();
          if (!verdict.ok()) break;
        }
        cv_.wait_for(lock, std::chrono::milliseconds(5));
      }
    }
    active_.fetch_sub(1, std::memory_order_acq_rel);
    if (!verdict.ok()) return verdict;
    BackendResult result;
    result.dataset = "gated";
    result.regions_layer = "gated";
    result.method = "scan";
    result.exact = true;
    RegionRow row;
    row.id = 1;
    row.name = "only";
    row.value = 1.0;
    row.count = 1;
    result.rows.push_back(row);
    return result;
  }

  std::vector<CatalogEntry> ListDatasets() override { return {}; }
  std::vector<CatalogEntry> ListRegionLayers() override { return {}; }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  int active() const { return active_.load(std::memory_order_acquire); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  std::atomic<int> active_{0};
};

/// Real-engine world shared by the fidelity tests.
class QueryServerRoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!net::SocketsAvailable()) GTEST_SKIP() << "no sockets here";
    ASSERT_TRUE(manager_
                    .AddPointDataset(
                        "pts", testing::MakeUniformPoints(5000, /*seed=*/42))
                    .ok());
    ASSERT_TRUE(manager_
                    .AddRegionLayer("cells",
                                    testing::MakeTessellationRegions(3, 7))
                    .ok());
    backend_ = std::make_unique<app::DatasetManagerBackend>(&manager_);
  }

  /// The canonical rendering of a direct in-process execution, reduced to
  /// the fields that must match over the wire (elapsed_ms may differ).
  std::string DirectRegionsJson(const std::string& sql,
                                core::ExecutionMethod method) {
    StatusOr<BackendResult> result =
        backend_->ExecuteSql(sql, method, nullptr, nullptr);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return "";
    return RenderResult(*result, 0.0).Find("regions")->Dump();
  }

  app::DatasetManager manager_;
  std::unique_ptr<app::DatasetManagerBackend> backend_;
};

TEST_F(QueryServerRoundTripTest, ConcurrentQueriesMatchInProcessExecution) {
  // Two statements with different shapes; every HTTP response must render
  // the exact bytes the in-process engine produces (%.17g round-trips
  // doubles, so string equality is value equality).
  const std::string count_sql = "SELECT COUNT(*) FROM pts, cells";
  const std::string sum_sql = "SELECT SUM(v) FROM pts, cells";
  const std::string expected_count =
      DirectRegionsJson(count_sql, core::ExecutionMethod::kAccurateRaster);
  const std::string expected_sum =
      DirectRegionsJson(sum_sql, core::ExecutionMethod::kAccurateRaster);
  ASSERT_FALSE(expected_count.empty());
  ASSERT_FALSE(expected_sum.empty());

  QueryServer server(backend_.get());
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 6;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const bool use_sum = (t + i) % 2 == 0;
        const std::string& sql = use_sum ? sum_sql : count_sql;
        const HttpReply reply = Post(
            server.port(), "/v1/query",
            "{\"sql\": \"" + sql + "\", \"method\": \"accurate\"}");
        if (reply.status != 200) {
          failures.fetch_add(1);
          continue;
        }
        const auto parsed = data::ParseJson(reply.body);
        if (!parsed.ok() ||
            parsed->Find("schema")->AsString() != "urbane.result.v1" ||
            parsed->Find("regions")->Dump() !=
                (use_sum ? expected_sum : expected_count)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.served(), kThreads * kRequestsPerThread);
  EXPECT_EQ(server.rejected_overload(), 0u);
}

TEST_F(QueryServerRoundTripTest, CatalogAndTelemetryEndpoints) {
  QueryServer server(backend_.get());
  ASSERT_TRUE(server.Start().ok());

  const HttpReply datasets = Get(server.port(), "/v1/datasets");
  EXPECT_EQ(datasets.status, 200);
  {
    const auto parsed = data::ParseJson(datasets.body);
    ASSERT_TRUE(parsed.ok()) << datasets.body;
    EXPECT_EQ(parsed->Find("schema")->AsString(), "urbane.catalog.v1");
    ASSERT_EQ(parsed->Find("datasets")->AsArray().size(), 1u);
    EXPECT_EQ(parsed->Find("datasets")->AsArray()[0].Find("name")->AsString(),
              "pts");
    EXPECT_EQ(parsed->Find("datasets")->AsArray()[0].Find("size")->AsNumber(),
              5000.0);
  }
  const HttpReply regions = Get(server.port(), "/v1/regions");
  EXPECT_EQ(regions.status, 200);
  EXPECT_NE(regions.body.find("\"cells\""), std::string::npos);

  // Telemetry rides the same listener: one port for traffic and scrape.
  EXPECT_EQ(Get(server.port(), "/healthz").status, 200);
  const HttpReply metrics = Get(server.port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.headers.find("text/plain"), std::string::npos);
  EXPECT_EQ(Get(server.port(), "/slowlog").status, 200);

  server.Stop();
}

TEST_F(QueryServerRoundTripTest, ErrorTaxonomyOverTheWire) {
  QueryServer server(backend_.get());
  ASSERT_TRUE(server.Start().ok());
  const std::uint16_t port = server.port();

  // Malformed JSON body -> 400 with the error envelope.
  HttpReply reply = Post(port, "/v1/query", "{not json");
  EXPECT_EQ(reply.status, 400);
  EXPECT_NE(reply.body.find("\"InvalidArgument\""), std::string::npos);

  // SQL parse errors surface the byte offset of the offending token.
  reply = Post(port, "/v1/query", R"({"sql": "SELECT BOGUS(v) FROM a, b"})");
  EXPECT_EQ(reply.status, 400);
  EXPECT_NE(reply.body.find("SQL parse error at byte 7"), std::string::npos);

  // Binding failures are 404, not 400: the statement was well-formed.
  reply = Post(port, "/v1/query",
               R"({"sql": "SELECT COUNT(*) FROM nosuch, cells"})");
  EXPECT_EQ(reply.status, 404);
  EXPECT_NE(reply.body.find("\"NotFound\""), std::string::npos);

  // Wrong verbs and unknown endpoints.
  EXPECT_EQ(Get(port, "/v1/query").status, 405);
  EXPECT_EQ(Post(port, "/metrics", "{}").status, 405);
  EXPECT_EQ(Get(port, "/v2/nope").status, 404);

  // Malformed HTTP framing -> 400 from the request parser.
  EXPECT_EQ(Fetch(port, "GARBAGE\r\n\r\n").status, 400);
  EXPECT_EQ(Fetch(port, "GET /\r\n\r\n").status, 400);
  EXPECT_EQ(
      Fetch(port, "POST /v1/query HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
          .status,
      400);

  // A peer that hangs up mid-request gets no response; the server must
  // shrug it off and keep serving.
  {
    StatusOr<int> fd = net::ConnectLoopback(port);
    ASSERT_TRUE(fd.ok());
    net::SendAll(*fd, "GET /heal");
    net::CloseSocket(*fd);
  }
  EXPECT_EQ(Get(port, "/healthz").status, 200);

  server.Stop();
}

// An `auto` statement on a static data set reports the plan its own
// ExecuteAuto chose, even while another session plans a different method
// on the same shared engine. Each response's method must equal its own
// profile's planner choice.
TEST(QueryServerBackendTest, ConcurrentAutoStatementsNameTheirOwnPlan) {
  app::DatasetManager manager;
  ASSERT_TRUE(
      manager.AddPointDataset("pts", testing::MakeUniformPoints(5000, 43))
          .ok());
  ASSERT_TRUE(
      manager.AddRegionLayer("cells", testing::MakeTessellationRegions(3, 44))
          .ok());
  // A coarse canvas makes the raster join the cheapest plan for the whole
  // table, while a one-minute brush stays cheapest as a scan.
  core::RasterJoinOptions coarse;
  coarse.resolution = 64;
  ASSERT_TRUE(manager.Engine("pts", "cells", coarse).ok());
  app::DatasetManagerBackend backend(&manager);
  const std::string statements[] = {
      "SELECT COUNT(*) FROM pts, cells",
      "SELECT COUNT(*) FROM pts, cells WHERE t IN [0, 60)"};

  // Serially, the two statements plan different methods.
  std::string planned[2];
  for (int s = 0; s < 2; ++s) {
    obs::QueryProfile profile;
    const StatusOr<BackendResult> result =
        backend.ExecuteSql(statements[s], std::nullopt, nullptr, &profile);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->method, profile.planner_choice);
    planned[s] = result->method;
  }
  ASSERT_NE(planned[0], planned[1]);

  constexpr int kStatementsPerThread = 200;
  std::atomic<int> failures{0};
  std::atomic<int> wrong_method{0};
  std::vector<std::thread> sessions;
  for (int s = 0; s < 2; ++s) {
    sessions.emplace_back([&, s] {
      for (int i = 0; i < kStatementsPerThread; ++i) {
        obs::QueryProfile profile;
        const StatusOr<BackendResult> result =
            backend.ExecuteSql(statements[s], std::nullopt, nullptr, &profile);
        if (!result.ok()) {
          failures.fetch_add(1);
        } else if (result->method != profile.planner_choice) {
          wrong_method.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& session : sessions) session.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wrong_method.load(), 0)
      << "of " << 2 * kStatementsPerThread << " responses";
}

TEST(QueryServerAdmissionTest, OverloadShedsWith429AndServesEveryAdmission) {
  if (!net::SocketsAvailable()) GTEST_SKIP() << "no sockets here";
  GatedBackend backend;
  QueryServerOptions options;
  options.worker_threads = 1;
  options.max_queue_depth = 2;
  options.retry_after_seconds = 3;
  QueryServer server(&backend, options);
  ASSERT_TRUE(server.Start().ok());
  const std::uint16_t port = server.port();
  const std::string body = R"({"sql": "SELECT COUNT(*) FROM a, b"})";

  // Freeze the pool: one request executing (gated), two parked in the
  // admission queue — exactly at capacity.
  std::vector<std::thread> admitted;
  std::vector<HttpReply> admitted_replies(3);
  admitted.emplace_back(
      [&] { admitted_replies[0] = Post(port, "/v1/query", body); });
  ASSERT_TRUE(WaitFor([&] { return backend.active() == 1; }));
  admitted.emplace_back(
      [&] { admitted_replies[1] = Post(port, "/v1/query", body); });
  admitted.emplace_back(
      [&] { admitted_replies[2] = Post(port, "/v1/query", body); });
  ASSERT_TRUE(WaitFor([&] { return server.accepted() == 3; }));

  // Every further arrival must be shed from the acceptor with 429 and a
  // Retry-After hint — the backend never sees them.
  for (int i = 0; i < 5; ++i) {
    const HttpReply shed = Post(port, "/v1/query", body);
    EXPECT_EQ(shed.status, 429) << "burst request " << i;
    EXPECT_NE(shed.headers.find("Retry-After: 3"), std::string::npos);
  }
  EXPECT_EQ(server.rejected_overload(), 5u);
  EXPECT_EQ(backend.active(), 1);  // shed load never reached the engine

  // Open the gate: every admitted request completes with 200 — overload
  // may refuse work, it may never drop admitted work.
  backend.Release();
  for (std::thread& t : admitted) t.join();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(admitted_replies[i].status, 200) << "admitted request " << i;
  }
  server.Stop();
  EXPECT_EQ(server.served(), 3u);
}

TEST(QueryServerDrainTest, StopFinishesInFlightAndRefusesQueued) {
  if (!net::SocketsAvailable()) GTEST_SKIP() << "no sockets here";
  GatedBackend backend;
  QueryServerOptions options;
  options.worker_threads = 1;
  options.max_queue_depth = 8;
  QueryServer server(&backend, options);
  ASSERT_TRUE(server.Start().ok());
  const std::uint16_t port = server.port();
  const std::string body = R"({"sql": "SELECT COUNT(*) FROM a, b"})";

  // One request executing, two queued behind it.
  std::vector<std::thread> clients;
  std::vector<HttpReply> replies(3);
  clients.emplace_back([&] { replies[0] = Post(port, "/v1/query", body); });
  ASSERT_TRUE(WaitFor([&] { return backend.active() == 1; }));
  clients.emplace_back([&] { replies[1] = Post(port, "/v1/query", body); });
  clients.emplace_back([&] { replies[2] = Post(port, "/v1/query", body); });
  ASSERT_TRUE(WaitFor([&] { return server.accepted() == 3; }));

  std::thread stopper([&] { server.Stop(); });
  // Wait for the drain to latch (so the queued pair cannot slip into
  // execution), then let the in-flight query finish.
  ASSERT_TRUE(WaitFor([&] { return server.draining(); }));
  backend.Release();
  stopper.join();
  for (std::thread& t : clients) t.join();

  // The in-flight request completed normally; the queued ones were refused
  // with 503 instead of silently dropped.
  EXPECT_EQ(replies[0].status, 200);
  EXPECT_EQ(replies[1].status, 503);
  EXPECT_EQ(replies[2].status, 503);
  EXPECT_NE(replies[1].body.find("draining"), std::string::npos);
  EXPECT_EQ(server.rejected_draining(), 2u);

  // The listener is gone: new connections get nothing.
  EXPECT_EQ(Get(port, "/healthz").status, 0);
}

TEST(QueryServerDrainTest, DrainDeadlineCancelsStuckQueries) {
  if (!net::SocketsAvailable()) GTEST_SKIP() << "no sockets here";
  GatedBackend backend;  // never released: the query is stuck until cancel
  QueryServerOptions options;
  options.worker_threads = 1;
  options.drain_timeout_ms = 100;
  QueryServer server(&backend, options);
  ASSERT_TRUE(server.Start().ok());

  HttpReply reply;
  std::thread client(
      [&] { reply = Post(server.port(), "/v1/query",
                         R"({"sql": "SELECT COUNT(*) FROM a, b"})"); });
  ASSERT_TRUE(WaitFor([&] { return backend.active() == 1; }));

  // Stop() must return despite the wedged query: past drain_timeout_ms it
  // cancels the worker's control and the query aborts as 504.
  server.Stop();
  client.join();
  EXPECT_EQ(reply.status, 504);
  EXPECT_NE(reply.body.find("\"DeadlineExceeded\""), std::string::npos);
}

TEST(QueryServerDeadlineTest, PerRequestTimeoutYields504) {
  if (!net::SocketsAvailable()) GTEST_SKIP() << "no sockets here";
  GatedBackend backend;  // gated: only the deadline can end the query
  QueryServer server(&backend);
  ASSERT_TRUE(server.Start().ok());

  const HttpReply reply = Post(
      server.port(), "/v1/query",
      R"({"sql": "SELECT COUNT(*) FROM a, b", "timeout_ms": 50})");
  EXPECT_EQ(reply.status, 504);
  EXPECT_NE(reply.body.find("\"DeadlineExceeded\""), std::string::npos);
  EXPECT_NE(reply.body.find("deadline exceeded"), std::string::npos);

  // A deadline belongs to its request alone: after 504, the next request
  // (no timeout) executes normally once the gate opens.
  backend.Release();
  EXPECT_EQ(Post(server.port(), "/v1/query",
                 R"({"sql": "SELECT COUNT(*) FROM a, b"})")
                .status,
            200);
  server.Stop();
}

TEST(QueryServerTest, HalfOpenClientCannotStallOtherScrapers) {
  if (!net::SocketsAvailable()) GTEST_SKIP() << "no sockets here";
  // A client that sent half a request holds its worker in recv() until
  // client_timeout_ms. That timeout is far longer than Fetch's own, so a
  // scrape that had to wait for it would fail: only a free worker can
  // answer in time.
  GatedBackend backend;
  backend.Release();
  QueryServerOptions options;
  options.worker_threads = 2;
  options.client_timeout_ms = 60'000;
  QueryServer server(&backend, options);
  ASSERT_TRUE(server.Start().ok());

  StatusOr<int> mute = net::ConnectLoopback(server.port());
  ASSERT_TRUE(mute.ok());
  ASSERT_TRUE(net::SendAll(*mute, "GET /healthz HTTP/1.1\r\nHost:").ok());
  ASSERT_TRUE(WaitFor([&] { return server.accepted() >= 1; }));

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(Get(server.port(), "/healthz").status, 200)
        << "scrape " << i << " starved by a half-open client";
  }
  const HttpReply metrics = Get(server.port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("urbane_process_uptime_seconds"),
            std::string::npos);

  net::CloseSocket(*mute);
  server.Stop();
}

TEST(QueryServerLifecycleTest, StartStopRestartSemantics) {
  if (!net::SocketsAvailable()) GTEST_SKIP() << "no sockets here";
  GatedBackend backend;
  backend.Release();  // queries complete immediately
  QueryServer server(&backend);
  EXPECT_FALSE(server.running());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  EXPECT_FALSE(server.Start().ok());  // double start refused

  server.Stop();
  server.Stop();  // idempotent
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);

  ASSERT_TRUE(server.Start().ok());  // restart binds a fresh listener
  EXPECT_EQ(Get(server.port(), "/healthz").status, 200);
  server.Stop();

  QueryServer no_backend(nullptr);
  EXPECT_FALSE(no_backend.Start().ok());
}

}  // namespace
}  // namespace urbane::server
