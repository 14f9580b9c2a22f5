#include "ingest/live_engine.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace urbane::ingest {

LiveEngine::LiveEngine(LiveTable* table, const data::RegionSet* regions,
                       const LiveEngineOptions& options)
    : table_(table),
      schema_rows_(table->schema()),
      engine_(schema_rows_, *regions, options.raster_options,
              options.index_options) {
  engine_.set_num_shards(options.num_shards);
  engine_.set_result_cache_capacity(options.cache_entries);
}

LiveEngine::~LiveEngine() = default;

void LiveEngine::RefreshLocked(std::uint64_t* watermark) {
  const LiveSnapshot snapshot = table_->Snapshot();
  if (watermark != nullptr) {
    *watermark = snapshot.watermark;
  }
  std::vector<core::SpatialAggregation::Component> components;
  if (snapshot.base != nullptr && !snapshot.base->empty()) {
    components.push_back({snapshot.base, snapshot.base_zone_maps, nullptr});
  }
  for (const auto& run : snapshot.runs) {
    if (run->rows > 0) {
      components.push_back({&run->table, run->zone_maps(), run});
    }
  }
  if (snapshot.hot_rows == 0) {
    hot_.reset();
  } else {
    // The facade keeps point-side state per component owner, so an
    // unchanged hot prefix (same generation, same rows) keeps its view.
    if (hot_ == nullptr || hot_->generation != snapshot.hot_generation ||
        hot_->table.size() != snapshot.hot_rows) {
      auto hot = std::make_shared<HotView>();
      hot->owner = snapshot.hot_owner;
      hot->table = snapshot.hot;  // view copy: shares the columns
      hot->table.SetCachedExtents(snapshot.hot_bounds,
                                  snapshot.hot_time_range);
      hot->generation = snapshot.hot_generation;
      hot_ = std::move(hot);
    }
    components.push_back({&hot_->table, nullptr, hot_});
  }
  engine_.SetComponents(std::move(components));

  // Catch up the append log: each appended batch invalidates exactly the
  // cached answers its time interval can affect; flush/compact entries do
  // the same for their run's interval (row order — and therefore float
  // summation order — changed). Overflow means unknown intervals were
  // dropped, so everything time-dependent goes.
  bool overflowed = false;
  const std::vector<AppendLogEntry> entries =
      table_->EntriesSince(seen_seq_, &overflowed);
  if (overflowed) {
    engine_.ClearResultCache();
  } else {
    for (const AppendLogEntry& entry : entries) {
      engine_.InvalidateTimeOverlap(entry.t_begin, entry.t_end);
    }
  }
  // Only advance to the snapshot we are about to execute against; entries
  // from appends racing past it re-apply next refresh (idempotent).
  seen_seq_ = std::max(seen_seq_, snapshot.append_seq);
}

StatusOr<core::QueryResult> LiveEngine::Execute(core::AggregationQuery query,
                                                core::ExecutionMethod method,
                                                std::uint64_t* watermark) {
  std::lock_guard<std::mutex> lock(mu_);
  RefreshLocked(watermark);
  return engine_.Execute(std::move(query), method);
}

StatusOr<core::QueryResult> LiveEngine::ExecuteAuto(
    core::AggregationQuery query, const core::AccuracyRequirement& accuracy,
    std::uint64_t* watermark, core::QueryPlan* plan) {
  std::lock_guard<std::mutex> lock(mu_);
  RefreshLocked(watermark);
  return engine_.ExecuteAuto(std::move(query), accuracy, plan);
}

}  // namespace urbane::ingest
