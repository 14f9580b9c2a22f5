#ifndef URBANE_SHARD_SHARD_PLAN_H_
#define URBANE_SHARD_SHARD_PLAN_H_

#include <cstdint>
#include <vector>

#include "core/row_range.h"

namespace urbane::shard {

/// How a dataset's row space is split into independently-executable shards.
///
/// Shards are contiguous half-open row ranges that tile [0, rows) exactly:
/// every row belongs to exactly one shard, in ascending order. Over a UST1
/// block store the rows are Morton-clustered (store_writer sorts each batch
/// by raster::MortonPixelKey), so contiguous row ranges ARE spatial shards —
/// a shard owns a run of Z-order, i.e. a set of spatial tiles — and
/// zone-map pruning composes with them per block. Over an in-memory table
/// the split is positional; the merge contract (PartialResult::Merge in
/// core/aggregate.h) does not depend on the spatial quality of the
/// partition, only on its disjointness.
struct ShardPlan {
  std::vector<core::RowRange> shards;

  std::size_t size() const { return shards.size(); }
};

/// Builds an M-way plan over [0, total_rows).
///
/// `align_rows`, when non-zero, snaps every interior boundary down to a
/// multiple of it (the store's block_rows): no block ever straddles two
/// shards, so per-shard zone-map pruning eliminates whole blocks and one
/// shard's scan never touches another shard's blocks. Snapping
/// can make leading shards empty when total_rows / M < align_rows; empty
/// shards are kept (they produce well-formed empty partials) so the plan
/// always has exactly `num_shards` entries for `num_shards >= 1`.
///
/// `num_shards == 0` is treated as 1. The plan is a pure function of
/// (total_rows, num_shards, align_rows) — no scheduling input — which is
/// what makes sharded execution reproducible for a fixed shard count.
ShardPlan MakeShardPlan(std::uint64_t total_rows, std::size_t num_shards,
                        std::uint64_t align_rows = 0);

/// Restriction of a candidate set to one shard: the sorted, coalesced
/// intersection of `candidates` (null = every row) with `shard`. This is
/// what a shard's executor receives as AggregationQuery::candidate_ranges —
/// pruning and sharding compose, and a fully-pruned shard yields an empty
/// set (the executor then visits no rows and returns an empty partial).
core::RowRangeSet IntersectCandidates(const core::RowRangeSet* candidates,
                                      core::RowRange shard);

}  // namespace urbane::shard

#endif  // URBANE_SHARD_SHARD_PLAN_H_
