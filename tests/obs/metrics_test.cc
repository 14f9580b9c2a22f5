// Unit tests for the metrics primitives: counters, gauges, fixed-bucket
// histograms, registry lookup/reset semantics, and snapshot deltas.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "obs/obs.h"

namespace urbane::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(CounterTest, ZeroDeltaIsANoOp) {
  Counter counter;
  counter.Add(0);
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, SetAddReset) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(2.5);
  EXPECT_EQ(gauge.Value(), 2.5);
  gauge.Add(-1.0);
  EXPECT_EQ(gauge.Value(), 1.5);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0.0);
}

TEST(HistogramTest, BucketsByInclusiveUpperBound) {
  Histogram histogram({1.0, 2.0, 4.0});
  histogram.Observe(0.5);   // bucket 0
  histogram.Observe(1.0);   // bucket 0 (inclusive)
  histogram.Observe(1.5);   // bucket 1
  histogram.Observe(4.0);   // bucket 2 (inclusive)
  histogram.Observe(100.0); // overflow
  EXPECT_EQ(histogram.Count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 0.5 + 1.0 + 1.5 + 4.0 + 100.0);
}

TEST(HistogramTest, SortsAndDedupesBounds) {
  Histogram histogram({4.0, 1.0, 2.0, 1.0});
  const std::vector<double> expected = {1.0, 2.0, 4.0};
  EXPECT_EQ(histogram.bounds(), expected);
}

TEST(HistogramTest, EmptyHistogramReportsZeroMinMax) {
  MetricsRegistry registry;
  registry.GetHistogram("empty", {1.0});
  const MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSnapshot* h = snapshot.FindHistogram("empty");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 0u);
  EXPECT_EQ(h->min, 0.0);
  EXPECT_EQ(h->max, 0.0);
  EXPECT_EQ(h->Mean(), 0.0);
}

TEST(HistogramTest, TracksMinMaxMean) {
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("h", {1.0, 10.0});
  histogram.Observe(0.5);
  histogram.Observe(8.0);
  histogram.Observe(2.0);
  const MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSnapshot* h = snapshot.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->min, 0.5);
  EXPECT_DOUBLE_EQ(h->max, 8.0);
  EXPECT_NEAR(h->Mean(), (0.5 + 8.0 + 2.0) / 3.0, 1e-12);
}

TEST(RegistryTest, SameNameSameObject) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x");
  Counter& b = registry.GetCounter("x");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = registry.GetGauge("x");  // separate namespace per kind
  Gauge& g2 = registry.GetGauge("x");
  EXPECT_EQ(&g1, &g2);
}

TEST(RegistryTest, FirstHistogramBoundsWin) {
  MetricsRegistry registry;
  Histogram& a = registry.GetHistogram("h", {1.0, 2.0});
  Histogram& b = registry.GetHistogram("h", {5.0});
  EXPECT_EQ(&a, &b);
  const std::vector<double> expected = {1.0, 2.0};
  EXPECT_EQ(b.bounds(), expected);
}

TEST(RegistryTest, ResetZeroesButPreservesReferences) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("c");
  Histogram& histogram = registry.GetHistogram("h");
  counter.Add(7);
  histogram.Observe(0.01);
  registry.Reset();
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(histogram.Count(), 0u);
  // The reference survives reset and keeps recording.
  counter.Add(1);
  EXPECT_EQ(registry.GetCounter("c").Value(), 1u);
}

TEST(RegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("zeta").Add(1);
  registry.GetCounter("alpha").Add(2);
  registry.GetCounter("mid").Add(3);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].name, "alpha");
  EXPECT_EQ(snapshot.counters[1].name, "mid");
  EXPECT_EQ(snapshot.counters[2].name, "zeta");
}

TEST(RegistryTest, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

TEST(SnapshotTest, CounterValueDefaultsToZero) {
  MetricsSnapshot snapshot;
  EXPECT_EQ(snapshot.CounterValue("absent"), 0u);
  EXPECT_EQ(snapshot.FindCounter("absent"), nullptr);
  EXPECT_EQ(snapshot.FindGauge("absent"), nullptr);
  EXPECT_EQ(snapshot.FindHistogram("absent"), nullptr);
}

TEST(SnapshotTest, DeltaSubtractsCountersAndClampsAtZero) {
  MetricsRegistry registry;
  registry.GetCounter("c").Add(10);
  const MetricsSnapshot before = registry.Snapshot();
  registry.GetCounter("c").Add(5);
  registry.GetCounter("fresh").Add(3);
  const MetricsSnapshot after = registry.Snapshot();

  const MetricsSnapshot delta = MetricsSnapshot::Delta(after, before);
  EXPECT_EQ(delta.CounterValue("c"), 5u);
  EXPECT_EQ(delta.CounterValue("fresh"), 3u);

  // A counter that went backwards (reset between snapshots) clamps to 0.
  registry.Reset();
  const MetricsSnapshot reset_delta =
      MetricsSnapshot::Delta(registry.Snapshot(), after);
  EXPECT_EQ(reset_delta.CounterValue("c"), 0u);
}

TEST(SnapshotTest, DeltaDiffsHistogramBuckets) {
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("h", {1.0, 2.0});
  histogram.Observe(0.5);
  const MetricsSnapshot before = registry.Snapshot();
  histogram.Observe(0.5);
  histogram.Observe(1.5);
  const MetricsSnapshot after = registry.Snapshot();

  const MetricsSnapshot delta = MetricsSnapshot::Delta(after, before);
  const HistogramSnapshot* h = delta.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  ASSERT_EQ(h->buckets.size(), 3u);
  EXPECT_EQ(h->buckets[0], 1u);
  EXPECT_EQ(h->buckets[1], 1u);
  EXPECT_EQ(h->buckets[2], 0u);
  EXPECT_NEAR(h->sum, 2.0, 1e-12);
}

TEST(SnapshotTest, DeltaKeepsGaugeAfterValue) {
  MetricsRegistry registry;
  registry.GetGauge("g").Set(10.0);
  const MetricsSnapshot before = registry.Snapshot();
  registry.GetGauge("g").Set(4.0);
  const MetricsSnapshot delta =
      MetricsSnapshot::Delta(registry.Snapshot(), before);
  const GaugeSnapshot* g = delta.FindGauge("g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, 4.0);
}

TEST(DefaultLatencyBoundsTest, StrictlyIncreasing) {
  const std::vector<double> bounds = DefaultLatencyBounds();
  ASSERT_GE(bounds.size(), 2u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(QuantileTest, EmptyHistogramReturnsZero) {
  HistogramSnapshot histogram;
  histogram.bounds = {1.0};
  histogram.buckets = {0, 0};
  EXPECT_EQ(histogram.Quantile(0.5), 0.0);
}

TEST(QuantileTest, InterpolatesWithinBucketsAndOverflow) {
  // The golden-fixture shape: one observation per bucket including the
  // overflow bucket, which interpolates between the last bound and max.
  HistogramSnapshot histogram;
  histogram.bounds = {0.001, 0.01, 0.1};
  histogram.buckets = {1, 1, 1, 1};
  histogram.count = 4;
  histogram.min = 0.0005;
  histogram.max = 0.5;
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.50), 0.01);
  EXPECT_NEAR(histogram.Quantile(0.95), 0.42, 1e-12);
  EXPECT_NEAR(histogram.Quantile(0.99), 0.484, 1e-12);
}

TEST(QuantileTest, ClampsToObservedRange) {
  HistogramSnapshot histogram;
  histogram.bounds = {1.0};
  histogram.buckets = {4, 0};
  histogram.count = 4;
  histogram.min = 0.2;
  histogram.max = 0.9;
  // Linear interpolation inside [0, 1.0) would give 0.5 at the median...
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.5);
  // ...but the extremes clamp to the exact observed min/max.
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.0), 0.2);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 0.9);
}

TEST(QuantileTest, MonotoneInQ) {
  HistogramSnapshot histogram;
  histogram.bounds = {0.01, 0.1, 1.0};
  histogram.buckets = {10, 5, 2, 1};
  histogram.count = 18;
  histogram.min = 0.001;
  histogram.max = 3.0;
  double last = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double value = histogram.Quantile(q);
    EXPECT_GE(value, last) << "q=" << q;
    last = value;
  }
}

TEST(RegistryTest, SnapshotHistogramCopiesOneMetric) {
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("solo", {1.0, 2.0});
  histogram.Observe(0.5);
  histogram.Observe(1.5);

  const HistogramSnapshot snapshot = registry.SnapshotHistogram("solo");
  EXPECT_EQ(snapshot.name, "solo");
  EXPECT_EQ(snapshot.count, 2u);
  ASSERT_EQ(snapshot.buckets.size(), 3u);
  EXPECT_EQ(snapshot.buckets[0], 1u);
  EXPECT_EQ(snapshot.buckets[1], 1u);
  EXPECT_DOUBLE_EQ(snapshot.min, 0.5);
  EXPECT_DOUBLE_EQ(snapshot.max, 1.5);

  const HistogramSnapshot absent = registry.SnapshotHistogram("nope");
  EXPECT_TRUE(absent.name.empty());
  EXPECT_EQ(absent.count, 0u);
}

TEST(EnableFlagsTest, JournalFlagRoundTrips) {
  const bool was = JournalEnabled();
  SetJournalEnabled(true);
  EXPECT_TRUE(JournalEnabled());
  SetJournalEnabled(false);
  EXPECT_FALSE(JournalEnabled());
  SetJournalEnabled(was);
}

TEST(EnableFlagsTest, TogglesRoundTrip) {
  const bool metrics_was = MetricsEnabled();
  SetMetricsEnabled(true);
  EXPECT_TRUE(MetricsEnabled());
  SetMetricsEnabled(false);
  EXPECT_FALSE(MetricsEnabled());
  SetMetricsEnabled(metrics_was);
}

}  // namespace
}  // namespace urbane::obs
