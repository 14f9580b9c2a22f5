// Wire-format tests for the query server's JSON API: request validation,
// result/catalog/error rendering, and the Status -> HTTP status mapping.
// No sockets — the transport is exercised in query_server_test.cc.
#include "server/json_api.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "data/json.h"

namespace urbane::server {
namespace {

TEST(ParseApiRequestTest, AcceptsMinimalAndFullBodies) {
  StatusOr<ApiRequest> minimal =
      ParseApiRequest(R"({"sql": "SELECT COUNT(*) FROM taxi, nbhd"})");
  ASSERT_TRUE(minimal.ok()) << minimal.status().ToString();
  EXPECT_EQ(minimal->sql, "SELECT COUNT(*) FROM taxi, nbhd");
  // Default engine: the paper's exact raster join.
  ASSERT_TRUE(minimal->method.has_value());
  EXPECT_EQ(*minimal->method, core::ExecutionMethod::kAccurateRaster);
  EXPECT_EQ(minimal->timeout_ms, 0);

  StatusOr<ApiRequest> full = ParseApiRequest(
      R"({"sql": "SELECT AVG(v) FROM p, r", "method": "index",)"
      R"( "timeout_ms": 250})");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_TRUE(full->method.has_value());
  EXPECT_EQ(*full->method, core::ExecutionMethod::kIndexJoin);
  EXPECT_EQ(full->timeout_ms, 250);
}

TEST(ParseApiRequestTest, AutoMethodMeansPlannerChoice) {
  StatusOr<ApiRequest> request =
      ParseApiRequest(R"({"sql": "SELECT COUNT(*) FROM a, b",)"
                      R"( "method": "auto"})");
  ASSERT_TRUE(request.ok());
  EXPECT_FALSE(request->method.has_value());
}

TEST(ParseApiRequestTest, RejectsMalformedBodies) {
  const std::vector<std::string> corpus = {
      "",                                      // empty
      "not json at all",                       // lexer failure
      "[1, 2, 3]",                             // not an object
      "{}",                                    // missing sql
      R"({"sql": 42})",                        // sql not a string
      R"({"sql": ""})",                        // sql empty
      R"({"sql": "SELECT", "method": 7})",     // method not a string
      R"({"sql": "SELECT", "method": "x"})",   // unknown method
      R"({"sql": "SELECT", "timeout_ms": -5})",     // negative timeout
      R"({"sql": "SELECT", "timeout_ms": "fast"})",  // non-numeric timeout
      R"({"sql": "SELECT")",                   // truncated JSON
  };
  for (const std::string& body : corpus) {
    const StatusOr<ApiRequest> request = ParseApiRequest(body);
    EXPECT_FALSE(request.ok()) << body;
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument) << body;
    EXPECT_EQ(HttpStatusForError(request.status()), 400) << body;
  }
}

// x, y and the attributes are float32 columns, t an int64 one: a cell
// beyond its column's range would be stored as ±inf or make the int64 cast
// undefined, so it is a 400 naming the row and column.
TEST(ParseIngestRequestTest, RejectsCellsOutsideTheirColumnRange) {
  const std::vector<std::pair<std::string, std::string>> corpus = {
      {"[1e39, 2, 3, 4]", "row 1, column x"},
      {"[1, -1e39, 3, 4]", "row 1, column y"},
      {"[1, 2, 3, 3.5e38]", "row 1, column a0"},
      {"[1, 2, 1e19, 4]", "row 1, column t"},
      {"[1, 2, -1e300, 4]", "row 1, column t"},
  };
  for (const auto& [bad_row, where] : corpus) {
    const std::string body =
        R"({"dataset": "live", "rows": [[1, 2, 3, 4], )" + bad_row + "]}";
    const StatusOr<IngestRequest> request = ParseIngestRequest(body);
    ASSERT_FALSE(request.ok()) << body;
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument) << body;
    EXPECT_EQ(HttpStatusForError(request.status()), 400) << body;
    EXPECT_NE(request.status().message().find(where), std::string::npos)
        << request.status().message();
  }
  // The range edges themselves fit.
  const StatusOr<IngestRequest> edges = ParseIngestRequest(
      R"({"dataset": "live", "rows": [[3.4028234663852886e38, )"
      R"(-3.4028234663852886e38, -9223372036854775808, 1],)"
      R"( [0, 0, 9223372036854774784, -3.4028234663852886e38]]})");
  ASSERT_TRUE(edges.ok()) << edges.status().ToString();
  EXPECT_EQ(edges->batch.size(), 2u);
  EXPECT_EQ(edges->batch.t(0), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(edges->batch.t(1), 9223372036854774784);
}

TEST(ParseMethodNameTest, MapsEveryName) {
  EXPECT_EQ(**ParseMethodName("scan"), core::ExecutionMethod::kScan);
  EXPECT_EQ(**ParseMethodName("index"), core::ExecutionMethod::kIndexJoin);
  EXPECT_EQ(**ParseMethodName("raster"),
            core::ExecutionMethod::kBoundedRaster);
  EXPECT_EQ(**ParseMethodName("accurate"),
            core::ExecutionMethod::kAccurateRaster);
  EXPECT_FALSE(ParseMethodName("auto")->has_value());
  EXPECT_FALSE(ParseMethodName("quantum").ok());
}

TEST(RenderResultTest, EmitsSchemaAndNullsNonFiniteValues) {
  BackendResult result;
  result.dataset = "taxi";
  result.regions_layer = "nbhd";
  result.method = "accurate";
  result.exact = true;
  RegionRow populated;
  populated.id = 7;
  populated.name = "Midtown";
  populated.value = 12.5;
  populated.count = 4;
  result.rows.push_back(populated);
  RegionRow empty;  // AVG over an empty group: NaN must render as null
  empty.id = 8;
  empty.name = "Harbor";
  empty.value = std::nan("");
  empty.count = 0;
  empty.error_bound = 0.25;
  empty.has_error_bound = true;
  result.rows.push_back(empty);

  const std::string json = RenderResult(result, 3.5).Dump();
  const auto parsed = data::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  EXPECT_EQ(parsed->Find("schema")->AsString(), "urbane.result.v1");
  EXPECT_EQ(parsed->Find("dataset")->AsString(), "taxi");
  EXPECT_TRUE(parsed->Find("exact")->AsBool());
  const data::JsonValue* regions = parsed->Find("regions");
  ASSERT_NE(regions, nullptr);
  ASSERT_EQ(regions->AsArray().size(), 2u);
  const data::JsonValue& first = regions->AsArray()[0];
  EXPECT_EQ(first.Find("id")->AsNumber(), 7.0);
  EXPECT_EQ(first.Find("name")->AsString(), "Midtown");
  EXPECT_EQ(first.Find("value")->AsNumber(), 12.5);
  EXPECT_EQ(first.Find("error_bound"), nullptr);  // exact row: omitted
  const data::JsonValue& second = regions->AsArray()[1];
  EXPECT_TRUE(second.Find("value")->is_null());
  EXPECT_EQ(second.Find("error_bound")->AsNumber(), 0.25);
}

TEST(RenderCatalogTest, ListsEntriesUnderTheGivenKey) {
  std::vector<CatalogEntry> entries(2);
  entries[0].name = "taxi";
  entries[0].size = 100000;
  entries[1].name = "crime";
  entries[1].size = 5000;
  const auto parsed = data::ParseJson(RenderCatalog("datasets", entries).Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("schema")->AsString(), "urbane.catalog.v1");
  const data::JsonValue* datasets = parsed->Find("datasets");
  ASSERT_NE(datasets, nullptr);
  ASSERT_EQ(datasets->AsArray().size(), 2u);
  EXPECT_EQ(datasets->AsArray()[0].Find("name")->AsString(), "taxi");
  EXPECT_EQ(datasets->AsArray()[0].Find("size")->AsNumber(), 100000.0);
}

TEST(RenderErrorTest, WrapsCodeAndMessage) {
  const auto parsed = data::ParseJson(
      RenderError(Status::NotFound("unknown data set 'bogus'")).Dump());
  ASSERT_TRUE(parsed.ok());
  const data::JsonValue* error = parsed->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->Find("code")->AsString(), "NotFound");
  EXPECT_EQ(error->Find("message")->AsString(), "unknown data set 'bogus'");
}

TEST(HttpStatusForErrorTest, MapsTheErrorTaxonomy) {
  EXPECT_EQ(HttpStatusForError(Status::InvalidArgument("x")), 400);
  EXPECT_EQ(HttpStatusForError(Status::NotFound("x")), 404);
  EXPECT_EQ(HttpStatusForError(Status::AlreadyExists("x")), 409);
  EXPECT_EQ(HttpStatusForError(Status::FailedPrecondition("x")), 409);
  EXPECT_EQ(HttpStatusForError(Status::OutOfRange("x")), 416);
  EXPECT_EQ(HttpStatusForError(Status::DeadlineExceeded("x")), 504);
  EXPECT_EQ(HttpStatusForError(Status::NotImplemented("x")), 501);
  EXPECT_EQ(HttpStatusForError(Status::Internal("x")), 500);
  EXPECT_EQ(HttpStatusForError(Status::IoError("x")), 500);
}

}  // namespace
}  // namespace urbane::server
