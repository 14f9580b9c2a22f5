#ifndef URBANE_INGEST_LIVE_ENGINE_H_
#define URBANE_INGEST_LIVE_ENGINE_H_

// Query execution over a LiveTable: a snapshot adapter in front of the one
// query front, core::SpatialAggregation.
//
// Every query runs against one LiveTable::Snapshot() — a consistent as-of
// picture of base + runs + hot — so a query never sees half an append and
// the watermark it reports is exactly the row count it executed over.
// Under its mutex the engine hands the snapshot's components (base, runs in
// generation order, hot) to its one facade (SpatialAggregation::
// SetComponents) and asks that facade for the answer. A raster query
// composes the components on one canvas: each splats into the query's one
// leased target set, in component order, and the regions sweep once, so
// an append costs only the new hot rows' point-side state (Morton order,
// boundary runs) while the region-side state stays built. Scan and index
// run each component's executor and merge the partials in component order
// with PartialResult::Merge — exactly the merge a sharded engine applies to
// row-range shards: a component is just a shard whose boundary is a run
// boundary. Zone maps prune the store-backed components, and the
// configured shard fan-out splits the composed rows (raster) or each
// component (scan, index). The facade also observes, caches and plans the
// query as it does for a static data set, ε ratchet and `planner.choose`
// event included. The raster canvas covers the regions alone
// (core::CanvasWorld), so it is the canvas a stop-the-world engine over the
// concatenated rows uses, and no append moves it, wherever its rows lie:
// the ingest-equivalence oracle in tests/ingest/live_engine_test.cc
// checks bit-identity per executor, aggregate, filter and shard fan-out on
// dyadic data, and for the raster methods at one shard on arbitrary
// floats (each pixel accumulates in concatenated-row order).
//
// Result caching & watermark semantics: the facade's QueryCache keys
// deliberately exclude the watermark. Appends invalidate by *time overlap*
// instead (LiveTable's append log supplies the appended intervals), so an
// answer over a fully-closed time range keeps hitting across appends that
// only touch newer times. Flush/compact events also invalidate their run's
// interval: the row set is unchanged but the Morton re-order changes float
// summation order, so a cached SUM could differ bitwise from a
// re-execution.

#include <cstdint>
#include <memory>
#include <mutex>

#include "core/planner.h"
#include "core/query.h"
#include "core/query_cache.h"
#include "core/spatial_aggregation.h"
#include "data/region.h"
#include "ingest/live_table.h"
#include "util/status.h"

namespace urbane::ingest {

struct LiveEngineOptions {
  core::RasterJoinOptions raster_options;
  core::IndexJoinOptions index_options;
  /// Shard fan-out (1 = unsharded): the engine's only parallelism setting.
  /// A raster query shards the components' concatenated rows, a scan or
  /// index query each component.
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
  /// facade observes the query once, after the snapshot refresh, and a
  /// query profile describes the whole composed run: the cache outcome, the
  /// one composed raster pass or the scan/index components' costs summed
  /// (obs::QueryProfile::AddComponent), and the state the query built
  /// (`prepare_seconds`).
  StatusOr<core::QueryResult> Execute(core::AggregationQuery query,
                                      core::ExecutionMethod method,
                                      std::uint64_t* watermark = nullptr);

  /// SpatialAggregation::ExecuteAuto over the current snapshot: plans over
  /// every component, honors the planned ε resolution and journals the
  /// choice. `watermark` and `plan` (both optional) receive the snapshot's
  /// row count and the choice.
  StatusOr<core::QueryResult> ExecuteAuto(
      core::AggregationQuery query, const core::AccuracyRequirement& accuracy,
      std::uint64_t* watermark = nullptr, core::QueryPlan* plan = nullptr);

  /// Reconfigures the shard fan-out (SpatialAggregation::set_num_shards).
  void set_num_shards(std::size_t num_shards) {
    engine_.set_num_shards(num_shards);
  }

  void set_result_cache_capacity(std::size_t capacity) {
    engine_.set_result_cache_capacity(capacity);
  }
  core::QueryCacheStats result_cache_stats() const {
    return engine_.result_cache_stats();
  }

 private:
  /// The hot prefix of one snapshot: its columns' owner and the view the
  /// facade reads them through. A new append or seal makes a new view.
  struct HotView {
    std::shared_ptr<Memtable> owner;
    data::PointTable table;
    std::uint64_t generation = 0;
  };

  /// Hands the facade the current snapshot's components, then catches up
  /// the append log (scoped cache invalidation).
  /// `watermark` (nullable) receives the snapshot's row count. Requires
  /// mu_ held.
  void RefreshLocked(std::uint64_t* watermark);

  LiveTable* const table_;
  /// Zero rows under the live table's schema: the table the facade
  /// validates every query against, also while the live table is empty.
  const data::PointTable schema_rows_;

  /// Serializes refresh + execution, so a query runs on the components of
  /// the snapshot it refreshed to.
  std::mutex mu_;
  core::SpatialAggregation engine_;
  std::shared_ptr<const HotView> hot_;
  std::uint64_t seen_seq_ = 0;  // append-log position already applied
};

}  // namespace urbane::ingest

#endif  // URBANE_INGEST_LIVE_ENGINE_H_
