#ifndef URBANE_CORE_SPATIAL_AGGREGATION_H_
#define URBANE_CORE_SPATIAL_AGGREGATION_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
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

/// Facade over the four executors — the library's main entry point, and
/// the one query front of static and live data sets alike.
///
/// A query runs over an ordered list of row components: a static data set
/// is one component (the constructor's `points`), and a live data set's
/// snapshot is its base, then its runs, then its hot rows
/// (ingest::LiveEngine hands them over with SetComponents). Each
/// store-backed component is pruned by its own zone maps. The raster
/// methods compose the components on one canvas: one executor splats every
/// component into the query's one leased target set, in component order,
/// and sweeps the regions once, so the answer is bit-identical to one table
/// holding the concatenated rows. Scan and index run each component's own
/// executor; their partials merge with PartialResult::Merge in component
/// order and finalize once, exactly the merge a sharded pass applies to
/// row-range shards.
///
/// Owns nothing heavy until first use; all of it is query-independent and
/// reused. A raster method's region-side state (canvas, sweep geometry,
/// render-target pool) is built once, on its first query, and each
/// component's point-side state (its Morton order and boundary runs) on the
/// first query that reaches it; scan and index build one executor per
/// component. Typical use:
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
/// Execute / ExecuteAuto / EstimateSelectivity may be called from any
/// number of threads. Executor construction and any rebuild (the
/// ExecuteAuto resolution bump) happen under a mutex. The executors
/// themselves are immutable and safe to share, yet execution still takes a
/// per-method lock (two sessions can run scan and raster concurrently, but
/// not two rasters). The lock does two jobs: it excludes rebuilds (the
/// ExecuteAuto ε ratchet, set_num_shards and SetComponents swap executors
/// only while no query of that method is in flight), and it holds
/// render-target memory to one canvas-sized set per raster method per
/// facade when unsharded — one set however many components a query
/// composes — where N concurrent same-method queries would otherwise lease
/// N sets (DESIGN.md §4 has the measured trade). Result-cache hits bypass the
/// lock entirely, taking only a cache shard mutex, which is what keeps
/// revisited brush states concurrent.
class SpatialAggregation {
 public:
  /// One row component of a query.
  struct Component {
    const data::PointTable* table = nullptr;
    /// Block zone maps of a store-backed table; null otherwise.
    const ZoneMapIndex* zone_maps = nullptr;
    /// Keeps `table` alive while the engine holds the component, and names
    /// it: a component whose owner the engine already holds keeps the
    /// executors built for it. Null for a table borrowed for the engine's
    /// lifetime, which its address names.
    std::shared_ptr<const void> owner;
  };

  /// `points`/`regions` must outlive this object; `points` is the one
  /// component until SetComponents replaces it, and the table every query
  /// is validated against. Every executor runs serially; `set_num_shards`
  /// is how one query uses several cores.
  SpatialAggregation(const data::PointTable& points,
                     const data::RegionSet& regions,
                     const RasterJoinOptions& raster_options =
                         RasterJoinOptions(),
                     const IndexJoinOptions& index_options =
                         IndexJoinOptions());

  const data::PointTable& points() const { return points_; }
  const data::RegionSet& regions() const { return regions_; }

  /// Attaches the block zone maps of a store-backed `points` table: every
  /// query's filter is pruned against them and executors skip the pruned
  /// blocks. Call once, before the first query; `zone_maps` is borrowed
  /// and must outlive the engine. Pruning never changes results (see
  /// ZoneMapIndex), only the rows visited.
  void AttachZoneMaps(const ZoneMapIndex* zone_maps);

  /// Replaces the row components, in row order. Components already held
  /// keep their point-side state and executors, and the raster region-side
  /// state stays: the canvas covers the regions alone (CanvasWorld), so no
  /// component, wherever its rows lie, moves it. Takes every method mutex,
  /// so no query is in flight meanwhile.
  void SetComponents(std::vector<Component> components);

  /// Result cache (core::QueryCache): interactive sessions revisit query
  /// states (brushing back to a previous window), so Execute memoizes
  /// results keyed by a fingerprint of (method, aggregate, filter, viewport
  /// window, canvas resolution, executor-config epoch). Any executor
  /// rebuild bumps the epoch, so entries computed under an older config —
  /// in particular a coarser ε — can never hit again. Disabled by default
  /// (capacity 0) so latency measurements see real executor cost; Urbane's
  /// session layer / the CLI `cache` command turn it on.
  void set_result_cache_capacity(std::size_t capacity);

  QueryCacheStats result_cache_stats() const { return cache_.stats(); }
  std::size_t result_cache_hits() const { return cache_.stats().hits; }

  /// Drops the cached answers that rows appended over the half-open time
  /// interval [begin, end) can change (QueryCache::InvalidateTimeOverlap).
  void InvalidateTimeOverlap(std::int64_t begin, std::int64_t end) {
    cache_.InvalidateTimeOverlap(begin, end);
  }
  void ClearResultCache() { cache_.Clear(); }

  /// Scatter-gather fan-out: with `num_shards > 1` a query runs as a
  /// sharded pass — a raster method over the components' concatenated
  /// rows, scan and index over each component — whose row space splits
  /// into that many contiguous shards (block-aligned when the first
  /// component has zone maps), each shard executes the chosen method
  /// serially on the shared pool, and the partials merge per the
  /// shard-merge contract (PartialResult::Merge).
  /// 0 and 1 both mean unsharded. Takes every method mutex (no query can
  /// be in flight on the old configuration) and bumps the config epoch, so
  /// cached results from a different fan-out can never hit.
  void set_num_shards(std::size_t num_shards);
  std::size_t num_shards() const {
    return num_shards_.load(std::memory_order_acquire);
  }

  /// Rebuild counter mixed into every cache key; bumped whenever an
  /// executor's configuration changes (see ExecuteAuto).
  std::uint64_t config_epoch() const {
    return config_epoch_.load(std::memory_order_acquire);
  }

  /// Fills in the query's points/regions and runs it with the given method:
  /// a result-cache probe, then on a miss the dispatch loop (one composed
  /// pass for a raster method, one pass per component merged in component
  /// order for scan and index), finalized once.
  ///
  /// Telemetry: the query is observed once through core::ObserveQuery —
  /// journal `query.start` / `query.finish` (and `error`) events, the
  /// armed slow-query recorder's profile and record, the
  /// `query.wall_seconds` histogram — never once per component. With
  /// everything off and no profile attached the cost is three relaxed
  /// loads and a pointer test before the baseline path.
  StatusOr<QueryResult> Execute(AggregationQuery query,
                                ExecutionMethod method);

  /// Plans by cost model over every component (rows summed, selectivity
  /// weighted by rows, the regions' canvas world), journals the choice as
  /// `planner.choose`, then executes. `plan` (optional) receives this
  /// call's choice, and the query's profile (the armed recorder's, if it
  /// attaches one) records it.
  /// A plan that tightens the bounded-raster resolution rebuilds the bounded
  /// join's region-side state and every component's point-side state on the
  /// finer canvas, and bumps the config epoch (invalidating stale-ε
  /// entries).
  StatusOr<QueryResult> ExecuteAuto(AggregationQuery query,
                                    const AccuracyRequirement& accuracy,
                                    QueryPlan* plan = nullptr);

  /// Estimated selectivity of a filter: a count-only pass over an evenly
  /// strided sample of each component (no bitmap / id materialization),
  /// weighted by rows, so planning costs O(min(n, sample)) time per
  /// component and O(1) memory.
  StatusOr<double> EstimateSelectivity(const FilterSpec& filter) const;

 private:
  static constexpr std::size_t kNumMethods = 4;
  static std::size_t MethodIndex(ExecutionMethod method) {
    return static_cast<std::size_t>(method);
  }
  /// The raster methods compose every component on one canvas; scan and
  /// index run once per component and merge.
  static bool Composes(ExecutionMethod method) {
    return method == ExecutionMethod::kBoundedRaster ||
           method == ExecutionMethod::kAccurateRaster;
  }
  /// Slot of a raster method in `raster_` and ComponentState::raster.
  static std::size_t RasterIndex(ExecutionMethod method) {
    return method == ExecutionMethod::kAccurateRaster ? 1 : 0;
  }

  /// A component and the state built over its rows, lazily under
  /// state_mu_: the scan and index executors by MethodIndex — the plain one
  /// and the sharded wrapper used when `num_shards() > 1` (each owns the
  /// one inner executor its shards share) — and each raster method's
  /// point-side state by RasterIndex.
  struct ComponentState {
    Component rows;
    std::array<std::unique_ptr<SpatialAggregationExecutor>, 2> plain;
    std::array<std::unique_ptr<shard::ShardedExecutor>, 2> sharded;
    std::array<std::shared_ptr<const RasterPointSource>, 2> raster;
  };

  /// One raster method's join over every component, built lazily under
  /// state_mu_: the region-side state, built once and dropped only by a
  /// finer bounded resolution, and the executor composing every
  /// component's point-side state on it (inside a sharded wrapper when
  /// `num_shards() > 1`), rebuilt after the components or the fan-out
  /// change.
  struct RasterJoinState {
    std::shared_ptr<const RasterRegionState> region;
    std::unique_ptr<SpatialAggregationExecutor> executor;
  };

  /// What one query's executor lookups built: the time it took (the
  /// profile's `prepare_seconds`) and the raster region- and point-side
  /// states among it.
  struct PrepareTally {
    double seconds = 0.0;
    std::uint64_t region_states = 0;
    std::uint64_t point_states = 0;
  };

  /// The executor a scan or index query runs on `component` at the current
  /// fan-out, built on first use. Requires state_mu_ held.
  StatusOr<const SpatialAggregationExecutor*> ExecutorLocked(
      ComponentState& component, ExecutionMethod method,
      PrepareTally* tally);

  /// The composed executor a raster query of `method` runs over every
  /// component, building whatever state it lacks. Requires state_mu_ held.
  StatusOr<const SpatialAggregationExecutor*> RasterExecutorLocked(
      ExecutionMethod method, PrepareTally* tally);

  /// The dispatch loop: validates, polls the deadline, then runs the
  /// query. A raster method runs its composed executor once, over the
  /// components' concatenated rows, each store-backed component pruned by
  /// its own zone maps; scan and index run every component (zone-map
  /// pruning, its executor, its own profile part folded in with
  /// QueryProfile::AddComponent) and merge the partials in component
  /// order. Requires the method's mutex held.
  StatusOr<PartialResult> ExecuteComponentsLocked(
      const AggregationQuery& query, ExecutionMethod method);

  /// The baseline query path (cache probe + the dispatch loop on a miss),
  /// free of per-query observation. `cache_hit`, when non-null, reports
  /// whether the result came from the cache.
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

  /// Guards the components and their state, raster_ and raster_options_.
  mutable std::mutex state_mu_;
  /// Serializes Execute per method: protects in-flight executions against
  /// a concurrent rebuild and caps render-target memory (see the class
  /// comment).
  std::array<std::mutex, kNumMethods> method_mu_;

  /// CanvasWorld(regions_), the world the planner sizes canvases for;
  /// computed once, since the regions are immutable.
  const geometry::BoundingBox canvas_world_;

  /// The resolution ratchets in ExecuteAuto.
  RasterJoinOptions raster_options_;
  std::vector<ComponentState> components_;
  /// By RasterIndex.
  std::array<RasterJoinState, 2> raster_;

  std::atomic<std::size_t> num_shards_{1};
  std::atomic<std::uint64_t> config_epoch_{0};
  QueryCache cache_;
};

}  // namespace urbane::core

#endif  // URBANE_CORE_SPATIAL_AGGREGATION_H_
