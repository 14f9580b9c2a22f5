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
#include "index/grid_index.h"
#include "index/rtree.h"

namespace urbane::core {

/// Facade over the four executors — the library's main entry point, and
/// the one query front of static and live data sets alike.
///
/// A query runs over an ordered list of row components: a static data set
/// is one component (the constructor's `points`), and a live data set's
/// snapshot is its base, then its runs, then its hot rows
/// (ingest::LiveEngine hands them over with SetComponents). Each
/// store-backed component is pruned by its own zone maps. Every method
/// composes the components in one pass: one executor per method walks the
/// components' rows in component order into one partial — the raster
/// joins splat them into the query's one leased target set and sweep the
/// regions once, the scan and index joins add source after source into
/// one accumulator per region — so at one shard a raster or scan answer is
/// bit-identical to one table holding the concatenated rows.
///
/// Owns nothing heavy until first use; all of it is query-independent and
/// reused. Each method's region-side state (the scan's R-tree; a raster
/// method's canvas, sweep geometry and render-target pool) is built once,
/// on its first query, and each component's point-side state (its index
/// grid; its Morton order and boundary runs) on the first query that
/// reaches it. Typical use:
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
    /// point-side state built for it. Null for a table borrowed for the
    /// engine's lifetime, which its address names.
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
  /// keep their point-side state, and the region-side state stays: the
  /// canvas covers the regions alone (CanvasWorld), so no component,
  /// wherever its rows lie, moves it. A changed list drops only the
  /// composed executors. Takes every method mutex, so no query is in flight
  /// meanwhile.
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
  /// sharded pass over the components' concatenated rows, whose row space
  /// splits into that many contiguous shards (block-aligned when the first
  /// component has zone maps); each shard runs the method's composed
  /// executor serially on the shared pool, and the partials merge per the
  /// shard-merge contract (PartialResult::Merge).
  /// 0 and 1 both mean unsharded. Takes every method mutex (no query can
  /// be in flight on the old configuration), drops the composed executors
  /// — region- and point-side state stay — and bumps the config epoch, so
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
  /// a result-cache probe, then on a miss the method's one composed pass
  /// over every component, finalized once.
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
  /// Slot of a raster method in `raster_regions_` and
  /// ComponentState::raster.
  static std::size_t RasterIndex(ExecutionMethod method) {
    return method == ExecutionMethod::kAccurateRaster ? 1 : 0;
  }

  /// A component and the point-side state built over its rows, lazily
  /// under state_mu_: the index join's grid and each raster method's
  /// point source by RasterIndex.
  struct ComponentState {
    Component rows;
    std::shared_ptr<const index::GridIndex> grid;
    std::array<std::shared_ptr<const RasterPointSource>, 2> raster;
  };

  /// What one query's executor lookup built: the time it took (the
  /// profile's `prepare_seconds`) and the region- and point-side states
  /// among it.
  struct PrepareTally {
    double seconds = 0.0;
    std::uint64_t region_states = 0;
    std::uint64_t point_states = 0;
  };

  /// The composed executor a query of `method` runs over every component
  /// at the current fan-out, building whatever it lacks, in order: the
  /// method's region-side state, each component's point-side state, then
  /// the executor (inside a sharded wrapper when `num_shards() > 1`).
  /// Requires state_mu_ held.
  StatusOr<const SpatialAggregationExecutor*> ExecutorLocked(
      ExecutionMethod method, PrepareTally* tally);

  /// The dispatch: validates, polls the deadline, prunes each store-backed
  /// component by its own zone maps into candidate ranges over the
  /// components' concatenated rows, then runs the method's composed
  /// executor once on the caller's profile. Requires the method's mutex
  /// held.
  StatusOr<PartialResult> ExecuteComponentsLocked(
      const AggregationQuery& query, ExecutionMethod method);

  /// The baseline query path (cache probe + the dispatch on a miss),
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

  /// Guards the components and their state, the region-side state, the
  /// executors and raster_options_.
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
  /// Region-side state, built once per facade: the scan's R-tree and each
  /// raster method's region state by RasterIndex (a finer bounded
  /// resolution drops the bounded one).
  std::shared_ptr<const index::RTree> rtree_;
  std::array<std::shared_ptr<const RasterRegionState>, 2> raster_regions_;
  /// Each method's composed executor by MethodIndex; rebuilt after the
  /// components or the fan-out change.
  std::array<std::unique_ptr<SpatialAggregationExecutor>, kNumMethods>
      executors_;

  std::atomic<std::size_t> num_shards_{1};
  std::atomic<std::uint64_t> config_epoch_{0};
  QueryCache cache_;
};

}  // namespace urbane::core

#endif  // URBANE_CORE_SPATIAL_AGGREGATION_H_
