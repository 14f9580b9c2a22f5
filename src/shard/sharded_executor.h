#ifndef URBANE_SHARD_SHARDED_EXECUTOR_H_
#define URBANE_SHARD_SHARDED_EXECUTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/accurate_join.h"
#include "core/index_join.h"
#include "core/planner.h"
#include "core/query.h"
#include "core/raster_join.h"
#include "core/scan_join.h"
#include "shard/shard_plan.h"
#include "util/thread_pool.h"

namespace urbane::shard {

/// Configuration of one sharded executor.
struct ShardedExecutorOptions {
  /// Shard count M. 0 and 1 both mean "one shard" (still the scatter-gather
  /// code path, so M=1 is the degenerate conformance case).
  std::size_t num_shards = 1;

  /// Interior shard boundaries snap down to multiples of this (the store's
  /// block_rows); 0 = no alignment. See MakeShardPlan.
  std::uint64_t align_rows = 0;

  /// Pool the shard passes scatter onto. Null uses DefaultThreadPool().
  /// Pool size changes scheduling only, never results: each shard's pass is
  /// serial inside, partials land in per-shard slots, and the gather merges
  /// slots in shard-index order after every shard finished.
  ThreadPool* pool = nullptr;

  /// When true (or when num_shards == 1) shards run inline on the calling
  /// thread, in shard order — the fully deterministic schedule the
  /// conformance suite uses as one endpoint of the interleaving space.
  bool serial_scatter = false;

  /// Test-only plan override: when non-empty, used instead of
  /// MakeShardPlan. Ranges must be disjoint, ascending, and tile
  /// [0, rows) (validated at Execute). Enables skewed / empty /
  /// single-point shard partitions in the property suite.
  std::vector<core::RowRange> explicit_shards;

  /// Test-only fault injection: called per shard before it executes; a
  /// non-OK status makes that shard fail. The whole query must then fail
  /// with that status — never a partial merge.
  std::function<Status(std::size_t shard)> fault_injector;

  /// Test-only completion hook: called on the shard's worker thread after
  /// its partial is computed successfully, before it is published to the
  /// gather slot (failed shards publish their status without a hook call).
  /// The adversarial-interleaving harness blocks here to force shard
  /// completions into hostile orders; the fault suite counts calls to
  /// prove healthy shards finished and were still discarded.
  std::function<void(std::size_t shard)> completion_hook;
};

/// Scatter-gather execution of one query over M spatial/temporal shards.
///
/// Scatter: the row space is split by ShardPlan; every shard runs the one
/// shared inner executor (scan/index/bounded/accurate, built once at
/// Create, or a composed raster join handed to Wrap) with
/// `candidate_ranges` restricted to its rows ∩ the query's pruned ranges,
/// serially within the shard, concurrently across shards on the pool.
/// Executors are immutable after Create, so the shards share the inner
/// executor's R-tree / grid / splat orders / region spans and differ only
/// in their candidate ranges; a raster inner leases one render-target set
/// per concurrently running shard and splits a shard's ranges per point
/// source by offset. Every shard runs the query's own aggregate, AVG
/// included, through the inner ExecutePartial.
/// Gather: partials are published into per-shard slots; after all shards
/// finish, PartialResult::Merge folds the slots in ascending shard index —
/// canvas-free accumulator merge (counts and sums add, so AVG divides the
/// summed (sum, count) pairs once; MIN/MAX fold extrema; error bounds
/// add). When the query carries a profile or metrics are on, each shard
/// also gets its own slot profile; per-shard rows, the merged counters and
/// `exec.sharded.*` are folded from those slots in shard-index order.
///
/// Determinism contract (DESIGN.md §11): for a fixed shard count the result
/// is reproducible on any pool size and any completion order, because each
/// shard's pass is serial and the gather merges in shard order. COUNT and
/// MIN/MAX are bit-identical to the unsharded executor at every M; float
/// SUM/AVG merge per-shard partial sums in shard order, so they are
/// bit-identical whenever double addition over the data is exact (the
/// conformance suite constructs such data to pin the merge order) and
/// within summation-reorder noise (1e-6 relative) otherwise.
class ShardedExecutor : public core::SpatialAggregationExecutor {
 public:
  /// Builds the one inner executor for `method` from the raster/index
  /// options as configured. Executors are serial, so shards are the only
  /// parallelism in a sharded pass.
  static StatusOr<std::unique_ptr<ShardedExecutor>> Create(
      const data::PointTable& points, const data::RegionSet& regions,
      core::ExecutionMethod method, const ShardedExecutorOptions& options,
      const core::RasterJoinOptions& raster_options =
          core::RasterJoinOptions(),
      const core::IndexJoinOptions& index_options =
          core::IndexJoinOptions());

  /// Shards the `rows`-row space of an inner executor already built for
  /// `method`: one table's rows, or the concatenated rows of a composed
  /// raster join's sources (SpatialAggregation wraps its live raster joins
  /// this way, so a live query sweeps one canvas per shard, not one per
  /// shard and component).
  static std::unique_ptr<ShardedExecutor> Wrap(
      std::unique_ptr<core::SpatialAggregationExecutor> inner,
      std::uint64_t rows, core::ExecutionMethod method,
      const ShardedExecutorOptions& options);

  StatusOr<core::PartialResult> ExecutePartial(
      const core::AggregationQuery& query) const override;

  std::string name() const override { return "sharded-" + inner_->name(); }
  bool exact() const override { return inner_->exact(); }

  core::ExecutionMethod method() const { return method_; }
  std::size_t num_shards() const { return num_shards_; }

 private:
  ShardedExecutor(std::uint64_t rows, core::ExecutionMethod method,
                  ShardedExecutorOptions options, std::size_t num_shards,
                  std::unique_ptr<core::SpatialAggregationExecutor> inner)
      : rows_(rows),
        method_(method),
        options_(std::move(options)),
        num_shards_(num_shards),
        inner_(std::move(inner)) {}

  /// Runs shard `s` of `query` (already validated) on the inner executor,
  /// reporting its pass costs into `slot` (null when nobody observes).
  StatusOr<core::PartialResult> ExecuteShard(
      const core::AggregationQuery& query, std::size_t s,
      const core::RowRangeSet& candidates, obs::QueryProfile* slot) const;

  /// Rows of the inner executor's row space, which the plan tiles.
  const std::uint64_t rows_;
  const core::ExecutionMethod method_;
  const ShardedExecutorOptions options_;
  const std::size_t num_shards_;
  /// The one executor every shard runs, built over the full row space; the
  /// per-shard restriction is purely candidate_ranges.
  const std::unique_ptr<core::SpatialAggregationExecutor> inner_;
};

}  // namespace urbane::shard

#endif  // URBANE_SHARD_SHARDED_EXECUTOR_H_
