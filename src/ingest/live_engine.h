#ifndef URBANE_INGEST_LIVE_ENGINE_H_
#define URBANE_INGEST_LIVE_ENGINE_H_

// Snapshot-composed query execution over a LiveTable.
//
// Every query runs against one LiveTable::Snapshot() — a consistent as-of
// picture of base + runs + hot — so a query never sees half an append and
// the watermark it reports is exactly the row count it executed over.
// Each component gets its own core::SpatialAggregation engine (zone maps
// attached for store-backed components, the configured shard fan-out for
// all of them) and answers with an unfinalized core::PartialResult
// (SpatialAggregation::ExecutePartial) for the query's own aggregate, AVG
// included. The partials fold with PartialResult::Merge in component order
// and finalize once — exactly the merge a sharded engine applies to
// row-range shards: a component is just a shard whose boundary is a run
// boundary. The query is observed once, by this engine (journal events,
// slow-query record, `query.wall_seconds`), never per component. All
// component engines pin one shared canvas world (the union of every
// component's bounds and the region bounds), so raster canvases align
// bit-for-bit with a stop-the-world engine over the concatenated rows: the
// ingest-equivalence oracle in tests/ingest/live_engine_test.cc checks
// bit-identity per executor, aggregate, filter and shard fan-out.
//
// Result caching & watermark semantics: the engine keeps one QueryCache
// whose keys deliberately exclude the watermark. Appends invalidate by
// *time overlap* instead (LiveTable's append log supplies the appended
// intervals), so an answer over a fully-closed time range keeps hitting
// across appends that only touch newer times — the fix for the coarse
// config-epoch invalidation. Flush/compact events also invalidate their
// run's interval: the row set is unchanged but the Morton re-order changes
// float summation order, so a cached SUM could differ bitwise from a
// re-execution.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/planner.h"
#include "core/query.h"
#include "core/query_cache.h"
#include "core/spatial_aggregation.h"
#include "data/region.h"
#include "ingest/live_table.h"
#include "util/status.h"

namespace urbane::ingest {

struct LiveEngineOptions {
  core::RasterJoinOptions raster_options;  // world is pinned internally
  core::IndexJoinOptions index_options;
  /// Shard fan-out applied to every component engine (1 = unsharded): the
  /// engine's only parallelism setting.
  std::size_t num_shards = 1;
  /// Result cache bound (0 disables, like the facade's default).
  std::size_t cache_entries = 0;
};

class LiveEngine {
 public:
  /// `table` and `regions` are borrowed and must outlive the engine.
  LiveEngine(LiveTable* table, const data::RegionSet* regions,
             const LiveEngineOptions& options = LiveEngineOptions());

  ~LiveEngine();
  LiveEngine(const LiveEngine&) = delete;
  LiveEngine& operator=(const LiveEngine&) = delete;

  /// Executes against the current snapshot. `watermark` (optional)
  /// receives the snapshot's visible row count — the as-of position the
  /// result is exact for. Safe to call concurrently with appends and
  /// flushes; concurrent Execute calls serialize on the engine mutex. The
  /// query is observed once (core::ObserveQuery, keyed by its cache
  /// fingerprint), and a query profile describes the whole composed run:
  /// the engine's own cache outcome, wall time from entry to answer, and
  /// the components' costs summed (obs::QueryProfile::AddComponent).
  StatusOr<core::QueryResult> Execute(core::AggregationQuery query,
                                      core::ExecutionMethod method,
                                      std::uint64_t* watermark = nullptr);

  /// Plans over the combined workload profile (total rows, shared world,
  /// row-weighted selectivity estimate), then runs Execute with the chosen
  /// method at the engine's configured resolution — against a fresh
  /// snapshot, whose row count `watermark` reports, so appends racing the
  /// plan are in the answer. An armed slow-query recorder's profile is
  /// attached before planning, as the facade does. `plan` (optional)
  /// receives the choice.
  StatusOr<core::QueryResult> ExecuteAuto(
      core::AggregationQuery query, const core::AccuracyRequirement& accuracy,
      std::uint64_t* watermark = nullptr, core::QueryPlan* plan = nullptr);

  /// Reconfigures the component fan-out; bumps the epoch (cached results
  /// from a different fan-out could differ bitwise).
  void set_num_shards(std::size_t num_shards);

  void set_result_cache_capacity(std::size_t capacity);
  core::QueryCacheStats result_cache_stats() const { return cache_.stats(); }

  const LiveTable& table() const { return *table_; }
  const data::RegionSet& regions() const { return *regions_; }
  std::uint64_t config_epoch() const { return epoch_.load(); }

 private:
  /// One entry of the component stack with its lazily-reused engine.
  struct Component {
    /// Identity for engine reuse across refreshes: the base table pointer,
    /// the LiveRun pointer, or the hot tag below.
    const void* identity = nullptr;
    std::shared_ptr<const LiveRun> run;   // keeps a run component alive
    std::shared_ptr<Memtable> hot_owner;  // keeps the hot columns alive
    data::PointTable hot_table;           // stable view storage (hot only)
    const data::PointTable* table = nullptr;
    const core::ZoneMapIndex* zone_maps = nullptr;
    std::unique_ptr<core::SpatialAggregation> engine;
  };

  /// Reconciles components with the snapshot, handles world growth
  /// (rebuild everything + clear cache) and catches up the append log
  /// (scoped cache invalidation). Requires mu_ held.
  Status RefreshLocked(const LiveSnapshot& snapshot);
  Status RebuildComponentEngineLocked(Component& component);
  /// The query's result-cache key, which is also its journal and slowlog
  /// fingerprint.
  std::uint64_t CacheKey(const core::AggregationQuery& query,
                         core::ExecutionMethod method) const;
  /// One ExecutePartial per component, merged in component order and
  /// finalized once.
  StatusOr<core::QueryResult> ExecuteComposedLocked(
      const core::AggregationQuery& query, core::ExecutionMethod method);
  /// Execute minus the observation: takes the engine mutex, refreshes to
  /// the current snapshot, then answers from the engine's result cache or
  /// composes the components, recording the cache outcome on the query's
  /// profile and in `cache_hit` (nullable).
  StatusOr<core::QueryResult> ExecuteSnapshot(
      const core::AggregationQuery& query, core::ExecutionMethod method,
      std::uint64_t* watermark, bool* cache_hit);

  LiveTable* const table_;
  const data::RegionSet* const regions_;
  LiveEngineOptions options_;

  /// Serializes refresh + execution (component engines already serialize
  /// per method internally; the coarse lock keeps refresh atomic).
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Component>> components_;
  geometry::BoundingBox world_;
  /// Bumped under mu_; atomic because the journal fingerprint reads it
  /// before the query takes the lock.
  std::atomic<std::uint64_t> epoch_{0};
  std::uint64_t seen_seq_ = 0;  // append-log position already applied
  std::uint64_t hot_generation_ = 0;
  std::uint64_t hot_rows_ = 0;
  core::QueryCache cache_;

  /// Identity tag for the hot component (see Component::identity).
  static const char kHotTag;
};

}  // namespace urbane::ingest

#endif  // URBANE_INGEST_LIVE_ENGINE_H_
