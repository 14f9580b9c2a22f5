// Unit tests of the benchmark's own logic: request sequences, statistics,
// failure accounting and the host probes. Build and run with
//   cmake --build <build-dir> --target perfbench_test
//   <build-dir>/perfbench_test

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "layers.h"
#include "report.h"
#include "sampling.h"
#include "workload.h"

namespace urbane::perfbench {
namespace {

std::string Concat(const std::vector<Frame>& frames) {
  std::string out;
  for (const Frame& frame : frames) {
    out += frame.method + "|" + frame.sql + "\n";
  }
  return out;
}

std::string Concat(const LiveSchedule& schedule) {
  std::string out;
  for (const LiveStep& step : schedule.steps) {
    out += Concat(step.frames);
    out += step.flush ? "F" : "-";
    out += step.compact ? "C\n" : "-\n";
  }
  return out;
}

std::vector<std::int64_t> HeadTimes(std::size_t batches) {
  std::vector<std::int64_t> heads;
  for (std::size_t b = 0; b < batches; ++b) {
    heads.push_back(kMonthStart + (kLiveFirstDay - 1) * kDay +
                    static_cast<std::int64_t>(b) * 1800);
  }
  return heads;
}

TEST(WorkloadTest, SameSeedGivesByteIdenticalSequences) {
  EXPECT_EQ(Concat(ExploreTrace(7, 500)), Concat(ExploreTrace(7, 500)));
  EXPECT_EQ(Concat(SelectiveTrace(7, 500)), Concat(SelectiveTrace(7, 500)));
  const auto a = SaturateTraces(7, 4, 100);
  const auto b = SaturateTraces(7, 4, 100);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(Concat(a[c]), Concat(b[c]));
  }
  EXPECT_EQ(Concat(IngestLiveSchedule(7, HeadTimes(200), 1000, 10, 3)),
            Concat(IngestLiveSchedule(7, HeadTimes(200), 1000, 10, 3)));
}

TEST(WorkloadTest, SameSeedGivesSameRepeatShare) {
  EXPECT_EQ(RepeatShare(ExploreTrace(11, 800)),
            RepeatShare(ExploreTrace(11, 800)));
}

TEST(WorkloadTest, DifferentSeedGivesDifferentSequences) {
  EXPECT_NE(Concat(ExploreTrace(1, 200)), Concat(ExploreTrace(2, 200)));
  EXPECT_NE(Concat(SelectiveTrace(1, 200)), Concat(SelectiveTrace(2, 200)));
  EXPECT_NE(Concat(SaturateTraces(1, 2, 50)[0]),
            Concat(SaturateTraces(2, 2, 50)[0]));
  EXPECT_NE(Concat(IngestLiveSchedule(1, HeadTimes(50), 1000, 10, 3)),
            Concat(IngestLiveSchedule(2, HeadTimes(50), 1000, 10, 3)));
}

TEST(WorkloadTest, ExploreRepeatsAndSelectiveDoesNot) {
  const double explore = RepeatShare(ExploreTrace(3, 1000));
  EXPECT_GT(explore, 0.1);
  EXPECT_LT(explore, 0.6);
  EXPECT_EQ(RepeatShare(SelectiveTrace(3, 1000)), 0.0);
}

TEST(WorkloadTest, SaturateClientsShareNoStatement) {
  std::set<std::string> all;
  std::size_t total = 0;
  for (const auto& trace : SaturateTraces(5, 4, 200)) {
    for (const Frame& frame : trace) {
      all.insert(frame.sql);
      ++total;
      EXPECT_EQ(frame.method, "auto");
    }
  }
  EXPECT_EQ(all.size(), total);
}

TEST(WorkloadTest, IngestScheduleFlushesAndCompactsOnCadence) {
  const LiveSchedule schedule =
      IngestLiveSchedule(9, HeadTimes(60), 1000, 10, 3);
  ASSERT_EQ(schedule.steps.size(), 60u);
  std::size_t flushes = 0;
  std::size_t compactions = 0;
  for (std::size_t b = 0; b < schedule.steps.size(); ++b) {
    EXPECT_EQ(schedule.steps[b].flush, (b + 1) % 10 == 0) << b;
    flushes += schedule.steps[b].flush;
    compactions += schedule.steps[b].compact;
    EXPECT_EQ(schedule.steps[b].frames.size(), 3u);
  }
  EXPECT_EQ(flushes, 6u);
  EXPECT_EQ(compactions, 2u);
}

TEST(WorkloadTest, NamesRoundTrip) {
  for (Workload workload : {Workload::kExplore, Workload::kSelective,
                            Workload::kSaturate, Workload::kIngestLive}) {
    Workload parsed = Workload::kExplore;
    ASSERT_TRUE(ParseWorkload(WorkloadName(workload), &parsed));
    EXPECT_EQ(parsed, workload);
  }
  Workload unused;
  EXPECT_FALSE(ParseWorkload("hit", &unused));
}

TEST(SamplingTest, PercentilesOfKnownVectors) {
  const std::vector<double> five = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Percentile(five, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(five, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(five, 90), 4.6);
  EXPECT_DOUBLE_EQ(Percentile(five, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({10, 20}, 50), 15.0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 90), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(hundred, 90), 90.1);
}

TEST(SamplingTest, MissedSamplesMissEveryLimit) {
  // Two of ten frames failed: the p90 lands between a measured frame and
  // a failed one, so it reads as missed.
  std::vector<double> samples = {1, 1, 1, 1, 1, 1, 1, 1, kMissedSample,
                                 kMissedSample};
  EXPECT_DOUBLE_EQ(Percentile(samples, 50), 1.0);
  EXPECT_EQ(Percentile(samples, 90), kMissedSample);
  EXPECT_EQ(FormatNumber(Percentile(samples, 90), 10000), "10000");
}

TEST(SamplingTest, FailureAccounting) {
  OpTally tally;
  tally.Record(200);
  tally.Record(200);
  tally.Record(429);
  tally.Record(503);
  tally.Record(0);  // transport error
  tally.RecordMismatch();
  EXPECT_EQ(tally.attempted, 5u);
  EXPECT_EQ(tally.ok, 1u);
  EXPECT_EQ(tally.refused, 1u);
  EXPECT_EQ(tally.failed, 3u);
  EXPECT_EQ(tally.not_ok(), 4u);
  OpTally other;
  other.Record(200);
  tally.Merge(other);
  EXPECT_EQ(tally.attempted, 6u);
  EXPECT_EQ(tally.ok, 2u);
  EXPECT_EQ(TallyLine("frames", tally),
            "frames: attempted=6 ok=2 refused=1 failed=3");
}

TEST(SamplingTest, ParsesStealFromProcStat) {
  const std::string before =
      "cpu  100 0 50 800 10 0 5 35 0 0\n"
      "cpu0 50 0 25 400 5 0 2 18 0 0\n"
      "intr 12345\n";
  const std::string after =
      "cpu  200 0 100 1500 20 0 10 70 7 0\n"
      "cpu0 100 0 50 750 10 0 5 35 3 0\n";
  CpuTimes a;
  CpuTimes b;
  ASSERT_TRUE(ParseProcStat(before, &a));
  ASSERT_TRUE(ParseProcStat(after, &b));
  EXPECT_EQ(a.total, 1000u);
  EXPECT_EQ(a.steal, 35u);
  EXPECT_EQ(b.total, 1900u);  // guest time is inside user, not added
  EXPECT_DOUBLE_EQ(StealPercent(a, b), 100.0 * 35.0 / 900.0);
  EXPECT_DOUBLE_EQ(StealPercent(b, b), 0.0);
  CpuTimes unused;
  EXPECT_FALSE(ParseProcStat("cpu0 1 2 3\n", &unused));
  EXPECT_FALSE(ParseProcStat("cpu  1 2 3 4 5\n", &unused));
}

TEST(ReportTest, ResultLineHasExactlyTheContractKeys) {
  const std::string line =
      ResultLine(true, 12, 1,
                 {{"frame_p50_ms", 1.25, "ms"}, {"setup_s", 0.5, "s"}}, 10000);
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 1, "
            "\"metrics\": {\"frame_p50_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

TEST(LayersTest, SelfTimeSubtractsTheUnionOfChildren) {
  Span root;
  root.start_ms = 0;
  root.end_ms = 10;
  Span a;
  a.start_ms = 1;
  a.end_ms = 4;
  Span b;
  b.start_ms = 3;  // overlaps a
  b.end_ms = 5;
  Span c;
  c.start_ms = 8;
  c.end_ms = 12;  // runs past the parent
  EXPECT_DOUBLE_EQ(SelfTimeMs(root, {}), 10.0);
  EXPECT_DOUBLE_EQ(SelfTimeMs(root, {a, b, c}), 10.0 - 4.0 - 2.0);
}

}  // namespace
}  // namespace urbane::perfbench
