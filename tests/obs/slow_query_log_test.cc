// Slow-query flight recorder tests. The recorder's clock is "injected"
// through MaybeRecord's wall_seconds argument (the facade measures wall
// time; here we hand in synthetic durations), which makes every threshold
// decision deterministic.
#include "obs/slow_query_log.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/query.h"
#include "core/spatial_aggregation.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "testing/test_worlds.h"

namespace urbane::obs {
namespace {

SlowQueryLogOptions AbsoluteThreshold(double seconds, std::size_t capacity) {
  SlowQueryLogOptions options;
  options.threshold_seconds = seconds;
  options.p99_multiplier = 0.0;
  options.capacity = capacity;
  return options;
}

TEST(SlowQueryLogTest, RecordsOnlyAboveThreshold) {
  SlowQueryLog log(AbsoluteThreshold(0.1, 8));
  EXPECT_FALSE(log.MaybeRecord(1, "scan", "q1", "", 0.05, nullptr));
  EXPECT_TRUE(log.MaybeRecord(2, "scan", "q2", "", 0.15, nullptr));
  EXPECT_TRUE(log.MaybeRecord(3, "scan", "q3", "", 0.1, nullptr));  // at edge
  EXPECT_EQ(log.captured(), 2u);
  const auto records = log.Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].fingerprint, 2u);
  EXPECT_EQ(records[0].query, "q2");
  EXPECT_DOUBLE_EQ(records[0].wall_seconds, 0.15);
  EXPECT_DOUBLE_EQ(records[0].threshold_seconds, 0.1);
  EXPECT_EQ(records[1].fingerprint, 3u);
}

TEST(SlowQueryLogTest, BoundedRingEvictsOldestFirst) {
  SlowQueryLog log(AbsoluteThreshold(0.0, 3));
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(log.MaybeRecord(static_cast<std::uint64_t>(i), "scan",
                                "q" + std::to_string(i), "", 1.0, nullptr));
  }
  EXPECT_EQ(log.captured(), 7u);
  const auto records = log.Records();
  ASSERT_EQ(records.size(), 3u);
  // Oldest evicted: sequences 4, 5, 6 survive, in order.
  EXPECT_EQ(records[0].sequence, 4u);
  EXPECT_EQ(records[1].sequence, 5u);
  EXPECT_EQ(records[2].sequence, 6u);
}

TEST(SlowQueryLogTest, CapturesEmbeddedProfile) {
  SlowQueryLog log(AbsoluteThreshold(0.0, 4));
  QueryProfile profile;
  profile.context = GenerateTraceContext();
  profile.method = "raster";
  profile.wall_seconds = 0.2;
  profile.totals.splat_seconds = 0.15;
  EXPECT_TRUE(log.MaybeRecord(7, "raster", "q", "raster wins", 0.2, &profile));
  const auto records = log.Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].trace_id, profile.context.TraceIdHex());
  const data::JsonValue& json = records[0].profile;
  ASSERT_TRUE(json.is_object());
  EXPECT_EQ(json.Find("schema")->AsString(), "urbane.profile.v1");
  EXPECT_EQ(json.Find("trace_id")->AsString(), records[0].trace_id);
  EXPECT_EQ(json.Find("method")->AsString(), "raster");
  EXPECT_DOUBLE_EQ(json.Find("request")->Find("wall_seconds")->AsNumber(),
                   0.2);
  EXPECT_DOUBLE_EQ(json.Find("executor")
                       ->Find("totals")
                       ->Find("splat_seconds")
                       ->AsNumber(),
                   0.15);
  // The record carries the profile, not a second per-query record.
  EXPECT_EQ(log.ToJson().Find("records")->AsArray()[0].Find("trace"),
            nullptr);
}

TEST(SlowQueryLogTest, P99MultiplierThresholdTracksHistogram) {
  // Unique histogram name so parallel tests never collide in the global
  // registry.
  SlowQueryLogOptions options;
  options.p99_multiplier = 2.0;
  options.histogram_name = "slowlogtest.p99.wall_seconds";
  options.threshold_floor_seconds = 0.001;
  SlowQueryLog log(options);

  // Empty histogram: the floor applies.
  log.RefreshThreshold();
  EXPECT_DOUBLE_EQ(log.ThresholdSeconds(), 0.001);

  // Populate: 100 observations at ~10ms → p99 ≈ 10ms → threshold ≈ 20ms.
  Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      options.histogram_name, {0.005, 0.01, 0.05});
  for (int i = 0; i < 100; ++i) histogram.Observe(0.01);
  log.RefreshThreshold();
  const double threshold = log.ThresholdSeconds();
  EXPECT_GT(threshold, 0.01);
  EXPECT_LE(threshold, 0.02 + 1e-12);

  EXPECT_FALSE(log.MaybeRecord(1, "scan", "fast", "", threshold / 2, nullptr));
  EXPECT_TRUE(
      log.MaybeRecord(2, "scan", "slow", "", threshold * 2, nullptr));
}

TEST(SlowQueryLogTest, SetOptionsShrinksRetainedRecords) {
  SlowQueryLog log(AbsoluteThreshold(0.0, 8));
  for (int i = 0; i < 8; ++i) {
    log.MaybeRecord(static_cast<std::uint64_t>(i), "scan", "q", "", 1.0,
                    nullptr);
  }
  SlowQueryLogOptions options = AbsoluteThreshold(0.0, 2);
  log.SetOptions(options);
  const auto records = log.Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].sequence, 6u);
  EXPECT_EQ(records[1].sequence, 7u);
}

TEST(SlowQueryLogTest, ToJsonMatchesSchema) {
  SlowQueryLog log(AbsoluteThreshold(0.25, 4));
  log.Arm();
  log.MaybeRecord(0xdeadbeefcafef00dULL, "accurate", "SELECT COUNT(*) ...",
                  "raster wins at this selectivity", 0.5, nullptr);
  const data::JsonValue json = log.ToJson();
  ASSERT_TRUE(json.is_object());
  EXPECT_EQ(json.Find("schema")->AsString(), "urbane.slowlog.v1");
  EXPECT_TRUE(json.Find("armed")->AsBool());
  EXPECT_DOUBLE_EQ(json.Find("threshold_seconds")->AsNumber(), 0.25);
  EXPECT_EQ(json.Find("captured")->AsNumber(), 1.0);
  const data::JsonValue* records = json.Find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->AsArray().size(), 1u);
  const data::JsonValue& record = records->AsArray()[0];
  EXPECT_EQ(record.Find("fingerprint")->AsString(), "deadbeefcafef00d");
  EXPECT_EQ(record.Find("method")->AsString(), "accurate");
  EXPECT_DOUBLE_EQ(record.Find("wall_seconds")->AsNumber(), 0.5);
  EXPECT_EQ(record.Find("plan")->AsString(),
            "raster wins at this selectivity");
}

TEST(SlowQueryLogTest, ClearResetsEverything) {
  SlowQueryLog log(AbsoluteThreshold(0.0, 4));
  log.MaybeRecord(1, "scan", "q", "", 1.0, nullptr);
  log.Clear();
  EXPECT_EQ(log.captured(), 0u);
  EXPECT_TRUE(log.Records().empty());
  log.MaybeRecord(2, "scan", "q", "", 1.0, nullptr);
  EXPECT_EQ(log.Records()[0].sequence, 0u);
}

// End-to-end: arm the global recorder with a zero threshold, run a real
// query through the facade, and expect a committed record embedding the
// armed-mode profile (method, cache outcome, executor pass costs) even
// though the caller never attached one.
TEST(SlowQueryLogIntegrationTest, FacadeCommitsSlowQueriesWhileArmed) {
  SlowQueryLog& recorder = SlowQueryLog::Global();
  recorder.SetOptions(AbsoluteThreshold(0.0, 16));
  recorder.Clear();
  recorder.Arm();

  const data::PointTable points = testing::MakeUniformPoints(500, 7);
  const data::RegionSet regions = testing::MakeRandomRegions(4, 7);
  core::SpatialAggregation engine(points, regions);
  core::AggregationQuery query;
  query.aggregate = core::AggregateSpec::Count();
  const auto result = engine.Execute(query, core::ExecutionMethod::kScan);
  recorder.Disarm();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const auto records = recorder.Records();
  ASSERT_GE(records.size(), 1u);
  const SlowQueryRecord& record = records.back();
  EXPECT_EQ(record.method, "scan");
  EXPECT_NE(record.query.find("COUNT"), std::string::npos);
  EXPECT_GT(record.wall_seconds, 0.0);
  ASSERT_TRUE(record.profile.is_object());
  EXPECT_EQ(record.profile.Find("schema")->AsString(), "urbane.profile.v1");
  EXPECT_EQ(record.profile.Find("method")->AsString(), "scan");
  EXPECT_EQ(record.profile.Find("cache")->AsString(), "off");
  EXPECT_EQ(record.profile.Find("executor")
                ->Find("totals")
                ->Find("points_scanned")
                ->AsNumber(),
            500.0);
  EXPECT_DOUBLE_EQ(
      record.profile.Find("request")->Find("wall_seconds")->AsNumber(),
      record.wall_seconds);

  recorder.SetOptions(SlowQueryLogOptions{});
  recorder.Clear();
}

// A planner-chosen slow query keeps its plan: the armed profile is attached
// before ExecuteAuto plans, so the record's `plan` is the planner's
// explanation and the embedded profile names the chosen method.
TEST(SlowQueryLogIntegrationTest, ArmedExecuteAutoRecordsThePlan) {
  SlowQueryLog& recorder = SlowQueryLog::Global();
  recorder.SetOptions(AbsoluteThreshold(0.0, 16));
  recorder.Clear();
  recorder.Arm();

  const data::PointTable points = testing::MakeUniformPoints(500, 11);
  const data::RegionSet regions = testing::MakeRandomRegions(4, 11);
  core::SpatialAggregation engine(points, regions);
  core::AggregationQuery query;
  query.aggregate = core::AggregateSpec::Count();
  core::QueryPlan plan;
  const auto result =
      engine.ExecuteAuto(query, core::AccuracyRequirement(), &plan);
  recorder.Disarm();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_FALSE(plan.explanation.empty());
  const auto records = recorder.Records();
  ASSERT_GE(records.size(), 1u);
  const SlowQueryRecord& record = records.back();
  EXPECT_EQ(record.plan, plan.explanation);
  ASSERT_TRUE(record.profile.is_object());
  const data::JsonValue* planner = record.profile.Find("planner");
  ASSERT_NE(planner, nullptr);
  EXPECT_EQ(planner->Find("choice")->AsString(),
            core::ExecutionMethodToString(plan.method));
  EXPECT_EQ(planner->Find("explanation")->AsString(), plan.explanation);

  recorder.SetOptions(SlowQueryLogOptions{});
  recorder.Clear();
}

}  // namespace
}  // namespace urbane::obs
