#ifndef URBANE_CORE_SPATIAL_AGGREGATION_H_
#define URBANE_CORE_SPATIAL_AGGREGATION_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/accurate_join.h"
#include "core/index_join.h"
#include "core/planner.h"
#include "core/query.h"
#include "core/query_cache.h"
#include "core/raster_join.h"
#include "core/scan_join.h"
#include "core/zone_map.h"
#include "shard/sharded_executor.h"

namespace urbane::core {

/// Facade over the four executors — the library's main entry point.
///
/// Owns nothing heavy until first use: each executor is built lazily on the
/// first query routed to it and then reused (the raster joins' Morton
/// orders and sweep spans, and the grid index, are all query-independent).
/// Typical use:
///
///   SpatialAggregation engine(taxis, neighborhoods);
///   AggregationQuery q;
///   q.aggregate = AggregateSpec::Count();
///   q.filter.WithTime(jan_begin, feb_begin);
///   auto result = engine.Execute(q, ExecutionMethod::kAccurateRaster);
///
/// or let the planner decide:
///
///   auto result = engine.ExecuteAuto(q, {.exact = false,
///                                        .epsilon_world = 15.0});
///
/// Thread-safety contract: one engine serves many concurrent sessions.
/// Execute / ExecutePartial / ExecuteAuto / EstimateSelectivity may be
/// called from any number of threads. Executor construction and any
/// rebuild (the ExecuteAuto resolution bump) happen under a mutex. The
/// executors themselves are immutable and safe to share, yet execution
/// still takes a per-method lock (two sessions can run scan and raster
/// concurrently, but not two rasters). The lock does two jobs: it excludes
/// rebuilds (the ExecuteAuto ε ratchet and set_num_shards swap executors
/// only while no query of that method is in flight), and it holds
/// render-target memory to one canvas-sized set per unsharded raster
/// method, where N concurrent same-method queries would otherwise lease N
/// sets (DESIGN.md §4 has the measured trade). Result-cache hits bypass the
/// lock entirely, taking only a cache shard mutex, which is what keeps
/// revisited brush states concurrent.
class SpatialAggregation {
 public:
  /// `points`/`regions` must outlive this object. Every executor runs
  /// serially; `set_num_shards` is how one query uses several cores.
  SpatialAggregation(const data::PointTable& points,
                     const data::RegionSet& regions,
                     const RasterJoinOptions& raster_options =
                         RasterJoinOptions(),
                     const IndexJoinOptions& index_options =
                         IndexJoinOptions());

  const data::PointTable& points() const { return points_; }
  const data::RegionSet& regions() const { return regions_; }

  /// Attaches the block zone maps of a store-backed table: every query's
  /// filter is pruned against them and executors skip the pruned blocks
  /// (`AggregationQuery::candidate_ranges`). Call once, before the first
  /// query; `zone_maps` is borrowed and must outlive the engine. Pruning
  /// never changes results (see ZoneMapIndex), only the rows visited.
  void AttachZoneMaps(const ZoneMapIndex* zone_maps) {
    zone_maps_ = zone_maps;
  }
  const ZoneMapIndex* zone_maps() const { return zone_maps_; }

  /// Builds (or returns the cached) executor for a method. Construction is
  /// thread-safe; the pointer stays valid until the engine rebuilds that
  /// executor (e.g. an ExecuteAuto resolution bump), so concurrent sessions
  /// should prefer Execute over holding executor pointers.
  StatusOr<const SpatialAggregationExecutor*> Executor(
      ExecutionMethod method);

  /// Result cache (core::QueryCache): interactive sessions revisit query
  /// states (brushing back to a previous window), so Execute memoizes
  /// results keyed by a fingerprint of (method, aggregate, filter, viewport
  /// window, canvas resolution, executor-config epoch). Any executor
  /// rebuild bumps the epoch, so entries computed under an older config —
  /// in particular a coarser ε — can never hit again. Disabled by default
  /// (capacity 0) so latency measurements see real executor cost; Urbane's
  /// session layer / the CLI `cache` command turn it on.
  /// Scatter-gather fan-out: with `num_shards > 1` every Execute runs as a
  /// sharded pass — the row space splits into that many contiguous shards
  /// (block-aligned when zone maps are attached), each shard executes the
  /// chosen method serially on the shared pool, and the partials merge per
  /// the shard-merge contract (PartialResult::Merge). 0 and 1 both mean
  /// unsharded. Takes every method mutex (no query can be in flight on the
  /// old configuration) and bumps the config epoch, so cached results from
  /// a different fan-out can never hit.
  void set_num_shards(std::size_t num_shards);
  std::size_t num_shards() const {
    return num_shards_.load(std::memory_order_acquire);
  }

  void set_result_cache_capacity(std::size_t capacity);

  QueryCacheStats result_cache_stats() const { return cache_.stats(); }
  std::size_t result_cache_hits() const { return cache_.stats().hits; }

  /// Rebuild counter mixed into every cache key; bumped whenever an
  /// executor's configuration changes (see ExecuteAuto).
  std::uint64_t config_epoch() const {
    return config_epoch_.load(std::memory_order_acquire);
  }

  /// Fills in the query's points/regions and runs it with the given method:
  /// a result-cache probe, then ExecutePartial's dispatch on a miss,
  /// finalized once.
  ///
  /// Telemetry: the query is observed once through core::ObserveQuery —
  /// journal `query.start` / `query.finish` (and `error`) events, the
  /// armed slow-query recorder's profile and record, the
  /// `query.wall_seconds` histogram. With everything off and no profile
  /// attached the cost is three relaxed loads and a pointer test before the
  /// baseline path.
  StatusOr<QueryResult> Execute(AggregationQuery query,
                                ExecutionMethod method);

  /// The dispatch half of Execute: fills in points/regions, takes the
  /// method lock, checks the deadline, prunes by zone map and runs the
  /// active executor's ExecutePartial, attributing coordinator CPU to the
  /// profile. No result cache and no per-query observation — composed
  /// engines (ingest::LiveEngine) merge the partials of several facades
  /// and observe the whole query once themselves.
  StatusOr<PartialResult> ExecutePartial(AggregationQuery query,
                                         ExecutionMethod method);

  /// Plans by cost model, then executes. `plan` (optional) receives this
  /// call's choice, and the query's profile (the armed recorder's, if it
  /// attaches one) records it.
  /// A plan that tightens the bounded-raster resolution rebuilds that
  /// executor and bumps the config epoch (invalidating stale-ε entries).
  StatusOr<QueryResult> ExecuteAuto(AggregationQuery query,
                                    const AccuracyRequirement& accuracy,
                                    QueryPlan* plan = nullptr);

  /// Estimated selectivity of a filter: a count-only pass over an evenly
  /// strided sample (no bitmap / id materialization), so planning costs
  /// O(min(n, sample)) time and O(1) memory.
  StatusOr<double> EstimateSelectivity(const FilterSpec& filter) const;

 private:
  static constexpr std::size_t kNumMethods = 4;
  static std::size_t MethodIndex(ExecutionMethod method) {
    return static_cast<std::size_t>(method);
  }

  /// Requires state_mu_ held.
  StatusOr<const SpatialAggregationExecutor*> ExecutorLocked(
      ExecutionMethod method);

  /// The executor Execute dispatches to: the sharded wrapper when
  /// `num_shards() > 1`, the plain executor otherwise. Requires state_mu_
  /// held.
  StatusOr<const SpatialAggregationExecutor*> ActiveExecutorLocked(
      ExecutionMethod method);

  /// ExecutePartial with the method lock already held.
  StatusOr<PartialResult> ExecutePartialLocked(AggregationQuery query,
                                               ExecutionMethod method);

  /// The baseline query path (cache probe + ExecutePartialLocked on a
  /// miss), free of per-query observation. `cache_hit`, when non-null,
  /// reports whether the result came from the cache.
  StatusOr<QueryResult> ExecuteCached(const AggregationQuery& query,
                                      ExecutionMethod method,
                                      bool* cache_hit);

  /// Cache key for `query` under the engine's *current* config (snapshots
  /// resolution + epoch under state_mu_). Stable while the query's
  /// method_mu_ is held, since rebuilds take that mutex too.
  std::uint64_t Fingerprint(const AggregationQuery& query,
                            ExecutionMethod method) const;

  const data::PointTable& points_;
  const data::RegionSet& regions_;
  const IndexJoinOptions index_options_;
  const ZoneMapIndex* zone_maps_ = nullptr;  // set before first query

  /// Guards executor pointers, raster_options_ and plan_world_.
  mutable std::mutex state_mu_;
  /// Serializes Execute per method: protects in-flight executions against
  /// a concurrent rebuild and caps render-target memory (see the class
  /// comment).
  std::array<std::mutex, kNumMethods> method_mu_;

  RasterJoinOptions raster_options_;  // resolution mutates in ExecuteAuto
  std::unique_ptr<ScanJoin> scan_;
  std::unique_ptr<IndexJoin> index_;
  std::unique_ptr<BoundedRasterJoin> raster_;
  std::unique_ptr<AccurateRasterJoin> accurate_;
  /// Sharded wrappers, one per method, built lazily like the executors
  /// above whenever num_shards_ > 1 (each owns the one inner executor its
  /// shards share — the plain ones above stay untouched).
  std::array<std::unique_ptr<shard::ShardedExecutor>, kNumMethods> sharded_;
  /// The planner's world (point bounds ∪ region bounds), set by the first
  /// ExecuteAuto.
  std::optional<geometry::BoundingBox> plan_world_;

  std::atomic<std::size_t> num_shards_{1};
  std::atomic<std::uint64_t> config_epoch_{0};
  QueryCache cache_;
};

}  // namespace urbane::core

#endif  // URBANE_CORE_SPATIAL_AGGREGATION_H_
