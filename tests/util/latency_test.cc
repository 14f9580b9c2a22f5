// LatencyRecorder: the phase-isolation regression (a later phase's
// percentiles must never see an earlier phase's samples) plus the
// non-mutating-summary contract bench_server_load depends on.
#include "util/latency.h"

#include <gtest/gtest.h>

#include <vector>

namespace urbane {
namespace {

TEST(LatencyRecorderTest, SummarizesOrderStatistics) {
  LatencyRecorder recorder;
  for (const double v : {5.0, 1.0, 4.0, 2.0, 3.0}) recorder.Record(v);
  const LatencySummary s = recorder.Summarize();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_EQ(s.mean, 3.0);
  EXPECT_EQ(s.p50, 3.0);
  // Interpolated tails: p95 of 5 samples sits at position 3.8.
  EXPECT_NEAR(s.p95, 4.8, 1e-12);
  EXPECT_NEAR(s.p99, 4.96, 1e-12);
}

TEST(LatencyRecorderTest, EmptyPhaseSummarizesToZeros) {
  const LatencySummary s = LatencyRecorder().Summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p95, 0.0);
  EXPECT_EQ(s.p99, 0.0);
}

// The regression that motivated the type: without a reset between phases,
// a slow phase A (100ms tail) bleeds into a fast phase B and inflates B's
// p99 by an order of magnitude. With Reset(), phase B's summary is a pure
// function of phase B's samples.
TEST(LatencyRecorderTest, ResetIsolatesPhases) {
  LatencyRecorder recorder;
  for (int i = 0; i < 100; ++i) recorder.Record(100.0);  // slow phase A
  const LatencySummary phase_a = recorder.Summarize();
  EXPECT_EQ(phase_a.p99, 100.0);

  recorder.Reset();
  EXPECT_TRUE(recorder.empty());
  for (int i = 0; i < 100; ++i) recorder.Record(1.0);  // fast phase B
  const LatencySummary phase_b = recorder.Summarize();
  EXPECT_EQ(phase_b.count, 100u);
  EXPECT_EQ(phase_b.p99, 1.0);
  EXPECT_EQ(phase_b.max, 1.0);

  // The failure mode being pinned: had phase A leaked in, the p99 over
  // the blended 200 samples would be A's 100ms, not B's 1ms.
  LatencyRecorder blended;
  for (int i = 0; i < 100; ++i) blended.Record(100.0);
  for (int i = 0; i < 100; ++i) blended.Record(1.0);
  EXPECT_EQ(blended.Summarize().p99, 100.0);
  EXPECT_NE(blended.Summarize().p99, phase_b.p99);
}

TEST(LatencyRecorderTest, SummarizeDoesNotMutateOrReorder) {
  LatencyRecorder recorder;
  const std::vector<double> arrival = {9.0, 2.0, 7.0, 1.0};
  for (const double v : arrival) recorder.Record(v);
  const LatencySummary once = recorder.Summarize();
  EXPECT_EQ(recorder.samples(), arrival);  // still in arrival order
  const LatencySummary twice = recorder.Summarize();
  EXPECT_EQ(once.p50, twice.p50);
  EXPECT_EQ(once.p99, twice.p99);
  EXPECT_EQ(recorder.size(), arrival.size());
}

TEST(LatencyRecorderTest, MergeFoldsPerClientRecorders) {
  LatencyRecorder client_a;
  client_a.Record(1.0);
  client_a.Record(2.0);
  LatencyRecorder client_b;
  client_b.Record(3.0);

  LatencyRecorder phase;
  phase.Merge(client_a);
  phase.Merge(client_b);
  EXPECT_EQ(phase.size(), 3u);
  EXPECT_EQ(phase.Summarize().mean, 2.0);
  // Sources untouched — they can be merged again into another phase.
  EXPECT_EQ(client_a.size(), 2u);
  EXPECT_EQ(client_b.size(), 1u);
}

}  // namespace
}  // namespace urbane
