#include "ingest/live_engine.h"

#include <algorithm>
#include <utility>

#include "core/observe.h"
#include "obs/profile.h"
#include "obs/slow_query_log.h"

namespace urbane::ingest {

const char LiveEngine::kHotTag = 0;

LiveEngine::LiveEngine(LiveTable* table, const data::RegionSet* regions,
                       const LiveEngineOptions& options)
    : table_(table),
      regions_(regions),
      options_(options),
      cache_(core::QueryCacheOptions{options.cache_entries}) {}

LiveEngine::~LiveEngine() = default;

Status LiveEngine::RebuildComponentEngineLocked(Component& component) {
  core::RasterJoinOptions raster = options_.raster_options;
  // PadCanvasWorld makes the pinned window bit-identical to the one a
  // stop-the-world engine derives from the concatenated rows (the raw
  // union alone differs by the derivation's edge padding).
  raster.world = core::PadCanvasWorld(world_);
  component.engine = std::make_unique<core::SpatialAggregation>(
      *component.table, *regions_, raster, options_.index_options);
  if (component.zone_maps != nullptr) {
    component.engine->AttachZoneMaps(component.zone_maps);
  }
  if (options_.num_shards > 1) {
    component.engine->set_num_shards(options_.num_shards);
  }
  return Status::OK();
}

Status LiveEngine::RefreshLocked(const LiveSnapshot& snapshot) {
  // The shared canvas world: union of the region bounds and every non-empty
  // component's exact bounds — identical to what a stop-the-world engine
  // over the concatenated rows would derive (min/max folds associate).
  geometry::BoundingBox world = regions_->Bounds();
  if (snapshot.base != nullptr && !snapshot.base->empty()) {
    world.Extend(snapshot.base->Bounds());
  }
  for (const auto& run : snapshot.runs) {
    if (run->rows > 0) {
      world.Extend(run->bounds);
    }
  }
  if (snapshot.hot_rows > 0) {
    world.Extend(snapshot.hot_bounds);
  }
  if (!(world == world_)) {
    // Growth changes every raster canvas, so nothing built under the old
    // world — engines or cached answers — is reusable.
    world_ = world;
    ++epoch_;
    components_.clear();
    cache_.Clear();
  }

  // Reconcile the component stack in canonical order, reusing engines whose
  // component is unchanged (identity: base pointer / run pointer / hot tag).
  auto take = [this](const void* identity) -> std::unique_ptr<Component> {
    for (auto& component : components_) {
      if (component != nullptr && component->identity == identity) {
        return std::move(component);
      }
    }
    return nullptr;
  };
  std::vector<std::unique_ptr<Component>> next;
  if (snapshot.base != nullptr && !snapshot.base->empty()) {
    std::unique_ptr<Component> component = take(snapshot.base);
    if (component == nullptr) {
      component = std::make_unique<Component>();
      component->identity = snapshot.base;
      component->table = snapshot.base;
      component->zone_maps = snapshot.base_zone_maps;
      URBANE_RETURN_IF_ERROR(RebuildComponentEngineLocked(*component));
    }
    next.push_back(std::move(component));
  }
  for (const auto& run : snapshot.runs) {
    if (run->rows == 0) {
      continue;
    }
    std::unique_ptr<Component> component = take(run.get());
    if (component == nullptr) {
      component = std::make_unique<Component>();
      component->identity = run.get();
      component->run = run;
      component->table = &run->table;
      component->zone_maps = run->zone_maps();
      URBANE_RETURN_IF_ERROR(RebuildComponentEngineLocked(*component));
    }
    next.push_back(std::move(component));
  }
  if (snapshot.hot_rows > 0) {
    std::unique_ptr<Component> component = take(&kHotTag);
    if (component == nullptr || hot_generation_ != snapshot.hot_generation ||
        hot_rows_ != snapshot.hot_rows) {
      component = std::make_unique<Component>();
      component->identity = &kHotTag;
      component->hot_owner = snapshot.hot_owner;
      component->hot_table = snapshot.hot;  // view copy: shares the columns
      component->hot_table.SetCachedExtents(snapshot.hot_bounds,
                                            snapshot.hot_time_range);
      component->table = &component->hot_table;
      URBANE_RETURN_IF_ERROR(RebuildComponentEngineLocked(*component));
    }
    next.push_back(std::move(component));
  }
  components_ = std::move(next);
  hot_generation_ = snapshot.hot_generation;
  hot_rows_ = snapshot.hot_rows;

  // Catch up the append log: each appended batch invalidates exactly the
  // cached answers its time interval can affect; flush/compact entries do
  // the same for their run's interval (row order — and therefore float
  // summation order — changed). Overflow means unknown intervals were
  // dropped, so everything time-dependent goes.
  bool overflowed = false;
  const std::vector<AppendLogEntry> entries =
      table_->EntriesSince(seen_seq_, &overflowed);
  if (overflowed) {
    cache_.Clear();
  } else {
    for (const AppendLogEntry& entry : entries) {
      cache_.InvalidateTimeOverlap(entry.t_begin, entry.t_end);
    }
  }
  // Only advance to the snapshot we are about to execute against; entries
  // from appends racing past it re-apply next refresh (idempotent).
  seen_seq_ = std::max(seen_seq_, snapshot.append_seq);
  return Status::OK();
}

std::uint64_t LiveEngine::CacheKey(const core::AggregationQuery& query,
                                   core::ExecutionMethod method) const {
  return core::QueryCache::Fingerprint(
      query, method, options_.raster_options.resolution, epoch_.load());
}

StatusOr<core::QueryResult> LiveEngine::ExecuteComposedLocked(
    const core::AggregationQuery& query, core::ExecutionMethod method) {
  // Components are disjoint row subsets, so their partials merge exactly
  // like shard partials: in component order, finalized once. An empty
  // stack merges nothing and answers like a stop-the-world engine over
  // zero rows.
  core::PartialResult merged;
  merged.regions.resize(regions_->size());
  if (method == core::ExecutionMethod::kBoundedRaster &&
      options_.raster_options.compute_error_bounds) {
    merged.error_bounds.assign(regions_->size(), 0.0);
  }
  obs::QueryProfile* const profile = query.profile;
  for (const auto& component : components_) {
    // Each component fills a profile of its own, folded into the caller's
    // below: one shared profile would keep only the last component's costs.
    obs::QueryProfile part;
    core::AggregationQuery partial_query;
    partial_query.aggregate = query.aggregate;
    partial_query.filter = query.filter;
    partial_query.control = query.control;
    partial_query.profile = profile != nullptr ? &part : nullptr;
    URBANE_ASSIGN_OR_RETURN(
        core::PartialResult partial,
        component->engine->ExecutePartial(std::move(partial_query), method));
    URBANE_RETURN_IF_ERROR(merged.Merge(partial));
    if (profile != nullptr) {
      if (!part.method.empty()) profile->method = part.method;
      profile->AddComponent(part);
    }
  }
  return merged.Finalize(query.aggregate.kind);
}

StatusOr<core::QueryResult> LiveEngine::ExecuteSnapshot(
    const core::AggregationQuery& query, core::ExecutionMethod method,
    std::uint64_t* watermark, bool* cache_hit) {
  std::lock_guard<std::mutex> lock(mu_);
  const LiveSnapshot snapshot = table_->Snapshot();
  URBANE_RETURN_IF_ERROR(RefreshLocked(snapshot));
  if (watermark != nullptr) {
    *watermark = snapshot.watermark;
  }
  const bool cacheable = cache_.enabled();
  if (query.profile != nullptr) {
    query.profile->method = core::ExecutionMethodToString(method);
    query.profile->cache = cacheable ? "miss" : "off";
  }
  std::uint64_t key = 0;
  if (cacheable) {
    key = CacheKey(query, method);
    if (std::optional<core::QueryResult> hit = cache_.Lookup(key)) {
      if (query.profile != nullptr) query.profile->cache = "hit";
      if (cache_hit != nullptr) *cache_hit = true;
      return *std::move(hit);
    }
  }
  URBANE_ASSIGN_OR_RETURN(core::QueryResult result,
                          ExecuteComposedLocked(query, method));
  if (cacheable) {
    cache_.Insert(key, result, query.filter);
  }
  return result;
}

StatusOr<core::QueryResult> LiveEngine::Execute(core::AggregationQuery query,
                                                core::ExecutionMethod method,
                                                std::uint64_t* watermark) {
  if (core::QueryUnobserved(query)) {
    return ExecuteSnapshot(query, method, watermark, nullptr);
  }
  // Observed once, here: the component engines run unobserved partials.
  // The wall time covers the whole composed run, lock wait and snapshot
  // refresh included, like the facade's.
  return core::ObserveQuery(
      query, method, [&] { return CacheKey(query, method); },
      [&](bool* cache_hit) {
        return ExecuteSnapshot(query, method, watermark, cache_hit);
      });
}

StatusOr<core::QueryResult> LiveEngine::ExecuteAuto(
    core::AggregationQuery query, const core::AccuracyRequirement& accuracy,
    std::uint64_t* watermark, core::QueryPlan* plan) {
  // As in the facade: an armed recorder's profile is attached before
  // planning, so a committed record carries the planner's choice and
  // explanation; Execute below reuses it.
  const std::unique_ptr<obs::QueryProfile> armed_profile =
      obs::SlowQueryLog::Global().armed() ? core::AttachArmedProfile(query)
                                          : nullptr;
  core::QueryPlan chosen;
  {
    std::lock_guard<std::mutex> lock(mu_);
    URBANE_RETURN_IF_ERROR(RefreshLocked(table_->Snapshot()));
    core::WorkloadProfile profile;
    profile.num_regions = regions_->size();
    profile.total_region_vertices = regions_->TotalVertexCount();
    profile.world = world_;
    profile.available_shards = std::max<std::size_t>(1, options_.num_shards);
    double weighted_selectivity = 0.0;
    std::size_t total_rows = 0;
    for (const auto& component : components_) {
      const std::size_t rows = component->table->size();
      double selectivity = 1.0;
      if (!query.filter.IsTrivial()) {
        URBANE_ASSIGN_OR_RETURN(
            selectivity,
            component->engine->EstimateSelectivity(query.filter));
      }
      weighted_selectivity += selectivity * static_cast<double>(rows);
      total_rows += rows;
    }
    profile.num_points = total_rows;
    profile.selectivity =
        total_rows == 0
            ? 1.0
            : weighted_selectivity / static_cast<double>(total_rows);
    chosen = core::PlanQuery(profile, accuracy,
                             options_.raster_options.resolution);
  }
  if (plan != nullptr) {
    *plan = chosen;
  }
  if (query.profile != nullptr) {
    query.profile->planner_choice =
        core::ExecutionMethodToString(chosen.method);
    query.profile->planner_explanation = chosen.explanation;
  }
  return Execute(std::move(query), chosen.method, watermark);
}

void LiveEngine::set_num_shards(std::size_t num_shards) {
  std::lock_guard<std::mutex> lock(mu_);
  if (num_shards == options_.num_shards) {
    return;
  }
  options_.num_shards = num_shards;
  for (const auto& component : components_) {
    component->engine->set_num_shards(std::max<std::size_t>(1, num_shards));
  }
  // A different fan-out can differ bitwise (float merge order), so cached
  // answers from the old configuration must become unreachable.
  ++epoch_;
}

void LiveEngine::set_result_cache_capacity(std::size_t capacity) {
  cache_.set_max_entries(capacity);
}

}  // namespace urbane::ingest
