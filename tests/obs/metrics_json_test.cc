// JSON export schema tests: ToJson output round-trips through the repo's
// own parser (src/data/json), matches the checked-in golden files
// semantically, and FromJson tolerates unknown or missing fields.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "data/json.h"
#include "obs/metrics.h"

namespace urbane::obs {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string GoldenPath(const char* name) {
  return std::string(URBANE_SOURCE_DIR) + "/tests/obs/golden/" + name;
}

// Structural equality with numeric tolerance: golden files are authored by
// hand, so exact double formatting must not matter.
::testing::AssertionResult JsonEquals(const data::JsonValue& a,
                                      const data::JsonValue& b,
                                      const std::string& path = "$") {
  if (a.type() != b.type()) {
    return ::testing::AssertionFailure()
           << path << ": type mismatch (" << a.Dump() << " vs " << b.Dump()
           << ")";
  }
  switch (a.type()) {
    case data::JsonValue::Type::kNull:
      return ::testing::AssertionSuccess();
    case data::JsonValue::Type::kBool:
      if (a.AsBool() != b.AsBool()) {
        return ::testing::AssertionFailure() << path << ": bool mismatch";
      }
      return ::testing::AssertionSuccess();
    case data::JsonValue::Type::kNumber: {
      const double x = a.AsNumber();
      const double y = b.AsNumber();
      const double tol = 1e-9 * std::max(1.0, std::max(std::fabs(x),
                                                       std::fabs(y)));
      if (std::fabs(x - y) > tol) {
        return ::testing::AssertionFailure()
               << path << ": number mismatch (" << x << " vs " << y << ")";
      }
      return ::testing::AssertionSuccess();
    }
    case data::JsonValue::Type::kString:
      if (a.AsString() != b.AsString()) {
        return ::testing::AssertionFailure()
               << path << ": string mismatch (\"" << a.AsString() << "\" vs \""
               << b.AsString() << "\")";
      }
      return ::testing::AssertionSuccess();
    case data::JsonValue::Type::kArray: {
      const auto& xs = a.AsArray();
      const auto& ys = b.AsArray();
      if (xs.size() != ys.size()) {
        return ::testing::AssertionFailure()
               << path << ": array size " << xs.size() << " vs " << ys.size();
      }
      for (std::size_t i = 0; i < xs.size(); ++i) {
        const auto result =
            JsonEquals(xs[i], ys[i], path + "[" + std::to_string(i) + "]");
        if (!result) {
          return result;
        }
      }
      return ::testing::AssertionSuccess();
    }
    case data::JsonValue::Type::kObject: {
      const auto& xs = a.AsObject();
      const auto& ys = b.AsObject();
      if (xs.size() != ys.size()) {
        return ::testing::AssertionFailure()
               << path << ": object size " << xs.size() << " vs " << ys.size();
      }
      for (std::size_t i = 0; i < xs.size(); ++i) {
        if (xs[i].first != ys[i].first) {
          return ::testing::AssertionFailure()
                 << path << ": key order mismatch (\"" << xs[i].first
                 << "\" vs \"" << ys[i].first << "\")";
        }
        const auto result =
            JsonEquals(xs[i].second, ys[i].second, path + "." + xs[i].first);
        if (!result) {
          return result;
        }
      }
      return ::testing::AssertionSuccess();
    }
  }
  return ::testing::AssertionFailure() << path << ": unknown type";
}

// A deterministic snapshot used by both the round-trip and golden tests.
MetricsSnapshot MakeFixtureSnapshot() {
  MetricsRegistry registry;
  registry.GetCounter("cache.hits").Add(3);
  registry.GetCounter("exec.scan.queries").Add(2);
  registry.GetGauge("cache.bytes").Set(1536.5);
  Histogram& histogram =
      registry.GetHistogram("exec.scan.query_seconds", {0.001, 0.01, 0.1});
  histogram.Observe(0.0005);
  histogram.Observe(0.005);
  histogram.Observe(0.05);
  histogram.Observe(0.5);
  return registry.Snapshot();
}

TEST(MetricsJsonTest, RoundTripsThroughParseJson) {
  const MetricsSnapshot snapshot = MakeFixtureSnapshot();
  const std::string dumped = snapshot.ToJson().Dump(2);

  const auto parsed = data::ParseJson(dumped);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto restored = MetricsSnapshot::FromJson(*parsed);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  ASSERT_EQ(restored->counters.size(), 2u);
  EXPECT_EQ(restored->CounterValue("cache.hits"), 3u);
  EXPECT_EQ(restored->CounterValue("exec.scan.queries"), 2u);
  ASSERT_EQ(restored->gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(restored->gauges[0].value, 1536.5);
  const HistogramSnapshot* h =
      restored->FindHistogram("exec.scan.query_seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 4u);
  ASSERT_EQ(h->buckets.size(), 4u);
  EXPECT_EQ(h->buckets[0], 1u);
  EXPECT_EQ(h->buckets[3], 1u);
  EXPECT_NEAR(h->sum, 0.5555, 1e-9);
  EXPECT_NEAR(h->min, 0.0005, 1e-12);
  EXPECT_NEAR(h->max, 0.5, 1e-12);

  // The restored snapshot serializes back to the same tree.
  EXPECT_TRUE(JsonEquals(restored->ToJson(), snapshot.ToJson()));
}

TEST(MetricsJsonTest, MatchesGoldenFile) {
  const auto golden =
      data::ParseJson(ReadFileOrDie(GoldenPath("metrics_snapshot.json")));
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  EXPECT_TRUE(JsonEquals(MakeFixtureSnapshot().ToJson(), *golden));
}

TEST(MetricsJsonTest, SchemaFieldIsStable) {
  const data::JsonValue json = MakeFixtureSnapshot().ToJson();
  const data::JsonValue* schema = json.Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->AsString(), "urbane.metrics.v1");
}

TEST(MetricsJsonTest, FromJsonToleratesUnknownAndMissingFields) {
  const auto parsed = data::ParseJson(R"({
    "schema": "urbane.metrics.v99",
    "future_section": {"anything": [1, 2, 3]},
    "counters": [
      {"name": "c", "value": 7, "unit": "frames"},
      {"name": "no_value"}
    ],
    "histograms": [
      {"name": "h", "count": 2}
    ]
  })");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto snapshot = MetricsSnapshot::FromJson(*parsed);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->CounterValue("c"), 7u);
  EXPECT_EQ(snapshot->CounterValue("no_value"), 0u);
  EXPECT_TRUE(snapshot->gauges.empty());
  const HistogramSnapshot* h = snapshot->FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_TRUE(h->bounds.empty());
}

TEST(MetricsJsonTest, FromJsonRejectsMalformedShapes) {
  const char* bad[] = {
      R"([1, 2, 3])",                          // root is not an object
      R"({"counters": {"not": "an array"}})",  // section of wrong type
      R"({"counters": [{"value": 3}]})",       // entry without a name
      R"({"counters": [{"name": 42}]})",       // name of wrong type
      R"({"histograms": [{"name": "h", "bounds": ["x"]}]})",
      R"({"histograms": [{"name": "h", "buckets": [null]}]})",
  };
  for (const char* text : bad) {
    const auto parsed = data::ParseJson(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_FALSE(MetricsSnapshot::FromJson(*parsed).ok()) << text;
  }
}

}  // namespace
}  // namespace urbane::obs
