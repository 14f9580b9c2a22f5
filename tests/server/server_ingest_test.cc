// End-to-end tests for the streaming-ingest HTTP surface: POST /v1/ingest
// feeds a live data set over the wire, the appended rows are visible to
// the very next /v1/query (which reports the as-of watermark), and a
// saturated write path maps onto 429 + Retry-After — the same admission
// contract the server's queue shedding uses.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "data/json.h"
#include "net/socket.h"
#include "server/json_api.h"
#include "server/query_server.h"
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

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/server_ingest_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// A row inside the tessellation world [0,100]^2, as wire JSON.
std::string Row(double x, double y, std::int64_t t, double v) {
  return "[" + std::to_string(x) + ", " + std::to_string(y) + ", " +
         std::to_string(t) + ", " + std::to_string(v) + "]";
}

class ServerIngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!net::SocketsAvailable()) GTEST_SKIP() << "no sockets here";
    ASSERT_TRUE(manager_
                    .AddRegionLayer("cells",
                                    testing::MakeTessellationRegions(3, 7))
                    .ok());
    backend_ = std::make_unique<app::DatasetManagerBackend>(&manager_);
  }

  app::DatasetManager manager_;
  std::unique_ptr<app::DatasetManagerBackend> backend_;
};

TEST_F(ServerIngestTest, IngestedRowsAreVisibleToTheNextQuery) {
  ASSERT_TRUE(
      manager_.EnableIngest("live", FreshDir("visible"), {"v"}).ok());
  QueryServer server(backend_.get());
  ASSERT_TRUE(server.Start().ok());

  const std::string batch =
      "{\"dataset\": \"live\", \"rows\": [" + Row(10, 10, 1000, 1.5) + ", " +
      Row(50, 50, 2000, 2.5) + ", " + Row(90, 90, 3000, 3.5) + "]}";
  const HttpReply ingest = Post(server.port(), "/v1/ingest", batch);
  ASSERT_EQ(ingest.status, 200) << ingest.body;
  StatusOr<data::JsonValue> ingest_json = data::ParseJson(ingest.body);
  ASSERT_TRUE(ingest_json.ok());
  EXPECT_EQ(ingest_json->Find("schema")->AsString(), "urbane.ingest.v1");
  EXPECT_EQ(ingest_json->Find("rows_appended")->AsNumber(), 3.0);
  EXPECT_EQ(ingest_json->Find("watermark")->AsNumber(), 3.0);

  const HttpReply query = Post(
      server.port(), "/v1/query",
      "{\"sql\": \"SELECT COUNT(*) FROM live, cells\", \"method\": \"scan\"}");
  ASSERT_EQ(query.status, 200) << query.body;
  StatusOr<data::JsonValue> query_json = data::ParseJson(query.body);
  ASSERT_TRUE(query_json.ok());
  EXPECT_EQ(query_json->Find("schema")->AsString(), "urbane.result.v1");
  ASSERT_NE(query_json->Find("watermark"), nullptr)
      << "live results must carry the as-of watermark";
  EXPECT_EQ(query_json->Find("watermark")->AsNumber(), 3.0);
  // The tessellation covers [0,100]^2, so all three rows land in regions.
  double total = 0;
  for (const data::JsonValue& region :
       query_json->Find("regions")->AsArray()) {
    total += region.Find("count")->AsNumber();
  }
  EXPECT_EQ(total, 3.0);

  // A second ingest moves the watermark the next query reports.
  const std::string more =
      "{\"dataset\": \"live\", \"rows\": [" + Row(30, 70, 4000, -1.0) + "]}";
  ASSERT_EQ(Post(server.port(), "/v1/ingest", more).status, 200);
  const HttpReply after = Post(
      server.port(), "/v1/query",
      "{\"sql\": \"SELECT COUNT(*) FROM live, cells\", \"method\": \"scan\"}");
  ASSERT_EQ(after.status, 200);
  StatusOr<data::JsonValue> after_json = data::ParseJson(after.body);
  ASSERT_TRUE(after_json.ok());
  EXPECT_EQ(after_json->Find("watermark")->AsNumber(), 4.0);
}

// An empty live data set validates a statement like every other data set:
// an unknown attribute is a 400, whether the method is named or planned.
TEST_F(ServerIngestTest, EmptyLiveDatasetRejectsUnknownAttribute) {
  ASSERT_TRUE(
      manager_.EnableIngest("live", FreshDir("unknown_attr"), {"v"}).ok());
  QueryServer server(backend_.get());
  ASSERT_TRUE(server.Start().ok());
  const HttpReply named = Post(
      server.port(), "/v1/query",
      "{\"sql\": \"SELECT SUM(no_such_column) FROM live, cells\", "
      "\"method\": \"scan\"}");
  EXPECT_EQ(named.status, 400) << named.body;
  const HttpReply planned =
      Post(server.port(), "/v1/query",
           "{\"sql\": \"SELECT SUM(no_such_column) FROM live, cells\"}");
  EXPECT_EQ(planned.status, 400) << planned.body;
}

TEST_F(ServerIngestTest, MalformedIngestRequestsAreRejected) {
  ASSERT_TRUE(manager_.EnableIngest("live", FreshDir("reject"), {"v"}).ok());
  QueryServer server(backend_.get());
  ASSERT_TRUE(server.Start().ok());
  const std::uint16_t port = server.port();

  EXPECT_EQ(Post(port, "/v1/ingest", "not json").status, 400);
  EXPECT_EQ(Post(port, "/v1/ingest", "{\"rows\": [[1,2,3,4]]}").status, 400)
      << "missing dataset";
  EXPECT_EQ(Post(port, "/v1/ingest",
                 "{\"dataset\": \"live\", \"rows\": []}")
                .status,
            400)
      << "empty batch";
  EXPECT_EQ(Post(port, "/v1/ingest",
                 "{\"dataset\": \"live\", \"rows\": [[1, 2]]}")
                .status,
            400)
      << "rows need at least x, y, t";
  EXPECT_EQ(Post(port, "/v1/ingest",
                 "{\"dataset\": \"live\", \"rows\": [[1,2,3,4], [1,2,3]]}")
                .status,
            400)
      << "ragged batch";
  // Cells beyond their column's range: x, y and attributes are float32,
  // t is int64.
  for (const char* row : {"[1e39, 2, 3, 4]", "[1, -1e39, 3, 4]",
                          "[1, 2, 3, 3.5e38]", "[1, 2, 1e19, 4]",
                          "[1, 2, -1e300, 4]"}) {
    EXPECT_EQ(Post(port, "/v1/ingest",
                   std::string("{\"dataset\": \"live\", \"rows\": [") + row +
                       "]}")
                  .status,
              400)
        << row;
  }
  // Well-formed request against a data set that is not live: not found.
  EXPECT_EQ(Post(port, "/v1/ingest",
                 "{\"dataset\": \"nope\", \"rows\": [[1,2,3,4]]}")
                .status,
            404);
  // GET on the ingest endpoint is a method error.
  EXPECT_EQ(
      Fetch(port, "GET /v1/ingest HTTP/1.1\r\nHost: x\r\n\r\n").status, 405);

  // No rejected request appended a row.
  const HttpReply query = Post(
      port, "/v1/query",
      "{\"sql\": \"SELECT COUNT(*) FROM live, cells\", \"method\": \"scan\"}");
  ASSERT_EQ(query.status, 200) << query.body;
  StatusOr<data::JsonValue> query_json = data::ParseJson(query.body);
  ASSERT_TRUE(query_json.ok());
  ASSERT_NE(query_json->Find("watermark"), nullptr);
  EXPECT_EQ(query_json->Find("watermark")->AsNumber(), 0.0);
}

TEST_F(ServerIngestTest, SaturatedWritePathMapsOnto429WithRetryAfter) {
  ingest::IngestOptions options;
  options.memtable_rows = 4;
  options.max_sealed_runs = 1;
  ASSERT_TRUE(
      manager_.EnableIngest("live", FreshDir("saturate"), {"v"}, options)
          .ok());
  QueryServer server(backend_.get());
  ASSERT_TRUE(server.Start().ok());

  const std::string batch =
      "{\"dataset\": \"live\", \"rows\": [" + Row(10, 10, 1000, 1.0) + ", " +
      Row(20, 20, 1100, 1.0) + ", " + Row(30, 30, 1200, 1.0) + ", " +
      Row(40, 40, 1300, 1.0) + "]}";
  ASSERT_EQ(Post(server.port(), "/v1/ingest", batch).status, 200);  // hot
  ASSERT_EQ(Post(server.port(), "/v1/ingest", batch).status, 200);  // seals
  const HttpReply rejected = Post(server.port(), "/v1/ingest", batch);
  EXPECT_EQ(rejected.status, 429);
  EXPECT_NE(rejected.headers.find("Retry-After:"), std::string::npos)
      << rejected.headers;

  // A flush drains the sealed run; the same batch is accepted again.
  ASSERT_TRUE(manager_.FlushIngest("live").ok());
  EXPECT_EQ(Post(server.port(), "/v1/ingest", batch).status, 200);
}

TEST_F(ServerIngestTest, LiveDatasetsAppearInTheCatalog) {
  ASSERT_TRUE(manager_.EnableIngest("live", FreshDir("catalog"), {"v"}).ok());
  const std::string batch =
      "{\"dataset\": \"live\", \"rows\": [" + Row(10, 10, 1000, 1.0) + "]}";
  QueryServer server(backend_.get());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(Post(server.port(), "/v1/ingest", batch).status, 200);

  const HttpReply catalog =
      Fetch(server.port(), "GET /v1/datasets HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_EQ(catalog.status, 200);
  EXPECT_NE(catalog.body.find("\"live\""), std::string::npos) << catalog.body;
}

}  // namespace
}  // namespace urbane::server
