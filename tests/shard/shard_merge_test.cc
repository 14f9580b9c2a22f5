// The shard-merge contract, aggregate by aggregate — including the unit
// counterexample that kills the naive AVG merge: averaging per-shard
// averages is wrong whenever shard sizes differ, which is why shards
// return (sum, count) accumulators and the merged partial divides once.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/aggregate.h"

namespace urbane::shard {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One region's accumulator as a shard hands it over: an empty region is
/// the default accumulator.
core::Accumulator Acc(std::uint64_t count, double sum, double min = kInf,
                      double max = -kInf) {
  core::Accumulator acc;
  acc.count = count;
  acc.sum = sum;
  acc.min = min;
  acc.max = max;
  return acc;
}

core::PartialResult Partial(std::vector<core::Accumulator> regions,
                            std::vector<double> bounds = {}) {
  core::PartialResult partial;
  partial.regions = std::move(regions);
  partial.error_bounds = std::move(bounds);
  return partial;
}

/// Folds `partials` in order into an empty partial over `regions` regions
/// — the gather of ShardedExecutor and LiveEngine — and finalizes once.
StatusOr<core::QueryResult> MergeAll(
    core::AggregateKind kind, const std::vector<core::PartialResult>& partials,
    std::size_t regions = 1) {
  core::PartialResult merged;
  merged.regions.resize(regions);
  for (const core::PartialResult& partial : partials) {
    URBANE_RETURN_IF_ERROR(merged.Merge(partial));
  }
  return merged.Finalize(kind);
}

// The satellite counterexample. Shard A holds {2, 4} (sum 6, count 2),
// shard B holds {12} (sum 12, count 1). True average = 18/3 = 6. The naive
// merge — average of per-shard averages — gives (3 + 12)/2 = 7.5. The
// (sum, count) merge must produce exactly 6 and thereby fail the naive
// value.
TEST(ShardMergeTest, AvgMergesSumCountPairsNotAverages) {
  const std::vector<core::PartialResult> partials = {
      Partial({Acc(2, 6.0, 2.0, 4.0)}),     // shard A = {2, 4}
      Partial({Acc(1, 12.0, 12.0, 12.0)}),  // shard B = {12}
  };
  const auto merged = MergeAll(core::AggregateKind::kAvg, partials);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->values[0], 6.0);
  EXPECT_EQ(merged->counts[0], 3u);

  const double naive = (6.0 / 2.0 + 12.0 / 1.0) / 2.0;
  EXPECT_EQ(naive, 7.5);  // what average-of-averages would have produced
  EXPECT_NE(merged->values[0], naive);
}

TEST(ShardMergeTest, AvgOfNoPointsIsNaNLikeFinalize) {
  const std::vector<core::PartialResult> partials = {Partial({Acc(0, 0.0)}),
                                                     Partial({Acc(0, 0.0)})};
  const auto merged = MergeAll(core::AggregateKind::kAvg, partials);
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(std::isnan(merged->values[0]));
  EXPECT_EQ(merged->counts[0], 0u);
}

TEST(ShardMergeTest, CountAndSumAreAdditive) {
  const std::vector<core::PartialResult> partials = {
      Partial({Acc(3, 3.0), Acc(0, 0.0)}),
      Partial({Acc(5, 5.0), Acc(2, 2.0)})};
  const auto count = MergeAll(core::AggregateKind::kCount, partials, 2);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->values[0], 8.0);
  EXPECT_EQ(count->values[1], 2.0);
  EXPECT_EQ(count->counts[0], 8u);

  const auto sum = MergeAll(core::AggregateKind::kSum, partials, 2);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->values[0], 8.0);
  EXPECT_EQ(sum->values[1], 2.0);
}

TEST(ShardMergeTest, MinMaxSkipNaNEmptyShards) {
  // Region 0: only shard 1 saw points. Region 1: no shard did.
  const std::vector<core::PartialResult> partials = {
      Partial({Acc(0, 0.0), Acc(0, 0.0)}),
      Partial({Acc(3, -13.5, -4.5, -4.5), Acc(0, 0.0)}),
      Partial({Acc(0, 0.0), Acc(0, 0.0)})};
  const auto merged_min = MergeAll(core::AggregateKind::kMin, partials, 2);
  ASSERT_TRUE(merged_min.ok());
  EXPECT_EQ(merged_min->values[0], -4.5);
  EXPECT_TRUE(std::isnan(merged_min->values[1]));

  const auto merged_max = MergeAll(core::AggregateKind::kMax, partials, 2);
  ASSERT_TRUE(merged_max.ok());
  EXPECT_EQ(merged_max->values[0], -4.5);
  EXPECT_TRUE(std::isnan(merged_max->values[1]));
}

TEST(ShardMergeTest, MinMaxFoldAcrossShards) {
  const std::vector<core::PartialResult> partials = {
      Partial({Acc(4, 8.0, 2.0, 2.0)}), Partial({Acc(1, -1.0, -1.0, -1.0)}),
      Partial({Acc(2, 14.0, 7.0, 7.0)})};
  const auto merged_min = MergeAll(core::AggregateKind::kMin, partials);
  ASSERT_TRUE(merged_min.ok());
  EXPECT_EQ(merged_min->values[0], -1.0);
  const auto merged_max = MergeAll(core::AggregateKind::kMax, partials);
  ASSERT_TRUE(merged_max.ok());
  EXPECT_EQ(merged_max->values[0], 7.0);
  EXPECT_EQ(merged_max->counts[0], 7u);
}

TEST(ShardMergeTest, ErrorBoundsAddAndPropagatePresence) {
  const std::vector<core::PartialResult> with_bounds = {
      Partial({Acc(1, 1.0)}, {0.5}), Partial({Acc(2, 2.0)}, {1.5})};
  const auto merged = MergeAll(core::AggregateKind::kSum, with_bounds);
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->error_bounds.size(), 1u);
  EXPECT_EQ(merged->error_bounds[0], 2.0);

  const std::vector<core::PartialResult> without = {Partial({Acc(1, 1.0)}),
                                                    Partial({Acc(2, 2.0)})};
  const auto plain = MergeAll(core::AggregateKind::kSum, without);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->error_bounds.empty());
}

TEST(ShardMergeTest, MergeIsAFunctionOfPartialsNotArrivalOrder) {
  // Same partials presented in the same slot order must merge identically
  // however many times we run it — the executor guarantees slot order, the
  // merge guarantees purity.
  const std::vector<core::PartialResult> partials = {
      Partial({Acc(1, 0.1), Acc(2, 0.2)}, {0.0, 0.25}),
      Partial({Acc(3, 0.3), Acc(4, 0.4)}, {0.5, 0.0})};
  const auto once = MergeAll(core::AggregateKind::kSum, partials, 2);
  const auto twice = MergeAll(core::AggregateKind::kSum, partials, 2);
  ASSERT_TRUE(once.ok());
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(once->values, twice->values);
  EXPECT_EQ(once->counts, twice->counts);
  EXPECT_EQ(once->error_bounds, twice->error_bounds);
}

// Folding no partials is the zero-row answer (a live data set with no
// component yet): COUNT/SUM 0, AVG/MIN/MAX NaN, every count 0.
TEST(ShardMergeTest, NoPartialsFinalizeLikeZeroRows) {
  for (const core::AggregateKind kind :
       {core::AggregateKind::kCount, core::AggregateKind::kSum}) {
    const auto merged = MergeAll(kind, {});
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(merged->values[0], 0.0);
    EXPECT_EQ(merged->counts[0], 0u);
  }
  for (const core::AggregateKind kind :
       {core::AggregateKind::kAvg, core::AggregateKind::kMin,
        core::AggregateKind::kMax}) {
    const auto merged = MergeAll(kind, {});
    ASSERT_TRUE(merged.ok());
    EXPECT_TRUE(std::isnan(merged->values[0]));
    EXPECT_EQ(merged->counts[0], 0u);
  }
}

TEST(ShardMergeTest, RejectsRegionCountDisagreement) {
  const std::vector<core::PartialResult> partials = {
      Partial({Acc(1, 1.0)}), Partial({Acc(1, 1.0), Acc(2, 2.0)})};
  EXPECT_FALSE(MergeAll(core::AggregateKind::kCount, partials).ok());
}

TEST(ShardMergeTest, RejectsMalformedBounds) {
  const std::vector<core::PartialResult> partials = {
      Partial({Acc(1, 1.0), Acc(2, 2.0)}, {0.5})};  // bounds shorter
  EXPECT_FALSE(MergeAll(core::AggregateKind::kSum, partials, 2).ok());
}

}  // namespace
}  // namespace urbane::shard
