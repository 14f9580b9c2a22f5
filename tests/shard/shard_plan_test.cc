// ShardPlan invariants: every plan tiles [0, rows) exactly, in order, with
// exactly M entries, whatever the alignment does to the boundaries — the
// disjointness the merge contract stands on.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/row_range.h"
#include "shard/shard_plan.h"

namespace urbane::shard {
namespace {

void ExpectTiles(const ShardPlan& plan, std::uint64_t rows,
                 std::size_t shards) {
  ASSERT_EQ(plan.size(), shards);
  std::uint64_t expect = 0;
  for (const core::RowRange& s : plan.shards) {
    EXPECT_EQ(s.begin, expect);
    EXPECT_LE(s.begin, s.end);
    expect = s.end;
  }
  EXPECT_EQ(expect, rows);
}

TEST(ShardPlanTest, TilesExactlyForEveryCount) {
  for (const std::uint64_t rows : {0u, 1u, 2u, 7u, 100u, 1001u}) {
    for (const std::size_t m : {1u, 2u, 3u, 4u, 8u, 16u}) {
      ExpectTiles(MakeShardPlan(rows, m), rows, m);
    }
  }
}

TEST(ShardPlanTest, UnalignedShardsAreBalanced) {
  const ShardPlan plan = MakeShardPlan(1001, 4);
  ExpectTiles(plan, 1001, 4);
  for (const core::RowRange& s : plan.shards) {
    const std::uint64_t size = s.end - s.begin;
    EXPECT_GE(size, 1001u / 4);
    EXPECT_LE(size, 1001u / 4 + 1);
  }
}

TEST(ShardPlanTest, ZeroShardsMeansOne) {
  const ShardPlan plan = MakeShardPlan(100, 0);
  ExpectTiles(plan, 100, 1);
}

TEST(ShardPlanTest, AlignmentSnapsInteriorBoundaries) {
  const ShardPlan plan = MakeShardPlan(1000, 3, /*align_rows=*/128);
  ExpectTiles(plan, 1000, 3);
  for (std::size_t s = 0; s + 1 < plan.size(); ++s) {
    EXPECT_EQ(plan.shards[s].end % 128, 0u) << "interior boundary " << s;
  }
  // The last boundary is the row count itself, aligned or not.
  EXPECT_EQ(plan.shards.back().end, 1000u);
}

TEST(ShardPlanTest, AlignmentLargerThanShareYieldsEmptyLeadingShards) {
  // 100 rows over 4 shards with 4096-row blocks: every interior boundary
  // snaps to 0, so the first three shards are empty and the last owns all
  // rows. Empty shards stay in the plan (well-formed empty partials).
  const ShardPlan plan = MakeShardPlan(100, 4, /*align_rows=*/4096);
  ExpectTiles(plan, 100, 4);
  EXPECT_EQ(plan.shards[0].end, plan.shards[0].begin);
  EXPECT_EQ(plan.shards[1].end, plan.shards[1].begin);
  EXPECT_EQ(plan.shards[2].end, plan.shards[2].begin);
  EXPECT_EQ(plan.shards[3].end - plan.shards[3].begin, 100u);
}

TEST(ShardPlanTest, PlanIsPureFunctionOfItsInputs) {
  for (int repeat = 0; repeat < 3; ++repeat) {
    const ShardPlan a = MakeShardPlan(12345, 8, 256);
    const ShardPlan b = MakeShardPlan(12345, 8, 256);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t s = 0; s < a.size(); ++s) {
      EXPECT_EQ(a.shards[s].begin, b.shards[s].begin);
      EXPECT_EQ(a.shards[s].end, b.shards[s].end);
    }
  }
}

TEST(IntersectCandidatesTest, NullCandidatesMeansWholeShard) {
  const core::RowRangeSet set =
      IntersectCandidates(nullptr, core::RowRange{10, 50});
  ASSERT_EQ(set.ranges().size(), 1u);
  EXPECT_EQ(set.ranges()[0].begin, 10u);
  EXPECT_EQ(set.ranges()[0].end, 50u);
}

TEST(IntersectCandidatesTest, NullCandidatesEmptyShardIsEmpty) {
  EXPECT_TRUE(IntersectCandidates(nullptr, core::RowRange{10, 10}).empty());
}

TEST(IntersectCandidatesTest, ClipsRangesToTheShard) {
  core::RowRangeSet candidates(
      {core::RowRange{0, 20}, core::RowRange{30, 40}, core::RowRange{60, 90}});
  const core::RowRangeSet set =
      IntersectCandidates(&candidates, core::RowRange{15, 70});
  ASSERT_EQ(set.ranges().size(), 3u);
  EXPECT_EQ(set.ranges()[0].begin, 15u);
  EXPECT_EQ(set.ranges()[0].end, 20u);
  EXPECT_EQ(set.ranges()[1].begin, 30u);
  EXPECT_EQ(set.ranges()[1].end, 40u);
  EXPECT_EQ(set.ranges()[2].begin, 60u);
  EXPECT_EQ(set.ranges()[2].end, 70u);
}

TEST(IntersectCandidatesTest, FullyPrunedShardYieldsEmptySet) {
  core::RowRangeSet candidates({core::RowRange{0, 10}});
  EXPECT_TRUE(
      IntersectCandidates(&candidates, core::RowRange{50, 80}).empty());
}

// Sharding composes with pruning: the per-shard intersections of any
// candidate set partition the candidate rows exactly.
TEST(IntersectCandidatesTest, ShardIntersectionsPartitionTheCandidates) {
  core::RowRangeSet candidates(
      {core::RowRange{5, 25}, core::RowRange{40, 45}, core::RowRange{60, 99}});
  const ShardPlan plan = MakeShardPlan(100, 7);
  // Every piece lies inside one candidate range.
  auto inside_candidates = [&](const core::RowRange& piece) {
    for (const core::RowRange& c : candidates.ranges()) {
      if (piece.begin >= c.begin && piece.end <= c.end) return true;
    }
    return false;
  };
  std::uint64_t covered = 0;
  for (const core::RowRange& shard : plan.shards) {
    const core::RowRangeSet piece = IntersectCandidates(&candidates, shard);
    for (const core::RowRange& r : piece.ranges()) {
      covered += r.end - r.begin;
      EXPECT_TRUE(inside_candidates(r));
      EXPECT_GE(r.begin, shard.begin);
      EXPECT_LE(r.end, shard.end);
    }
  }
  EXPECT_EQ(covered, 20u + 5u + 39u);
}

}  // namespace
}  // namespace urbane::shard
