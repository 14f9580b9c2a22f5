#include "ingest/live_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/process_metrics.h"
#include "obs/profile.h"
#include "shard/shard_merge.h"

namespace urbane::ingest {

namespace {

/// The dependency interval a cached answer carries (see QueryCache).
std::optional<core::QueryCache::TimeInterval> CacheValidTime(
    const core::FilterSpec& filter) {
  if (!filter.time_range.has_value()) {
    return std::nullopt;
  }
  return core::QueryCache::TimeInterval{filter.time_range->begin,
                                        filter.time_range->end};
}

int CacheResolution(const core::ExecutionMethod method, int resolution) {
  return (method == core::ExecutionMethod::kBoundedRaster ||
          method == core::ExecutionMethod::kAccurateRaster)
             ? resolution
             : 0;
}

}  // namespace

const char LiveEngine::kHotTag = 0;

LiveEngine::LiveEngine(LiveTable* table, const data::RegionSet* regions,
                       const LiveEngineOptions& options)
    : table_(table),
      regions_(regions),
      options_(options),
      cache_(core::QueryCacheOptions{options.cache_entries,
                                     options.cache_max_bytes,
                                     /*shards=*/8}),
      canvas_seed_(table->schema()) {}

LiveEngine::~LiveEngine() = default;

Status LiveEngine::RebuildComponentEngineLocked(Component& component) {
  core::RasterJoinOptions raster = options_.raster_options;
  // PadCanvasWorld makes the pinned window bit-identical to the one a
  // stop-the-world engine derives from the concatenated rows (the raw
  // union alone differs by the derivation's edge padding).
  raster.world = core::PadCanvasWorld(world_);
  component.engine = std::make_unique<core::SpatialAggregation>(
      *component.table, *regions_, raster, options_.index_options,
      options_.exec);
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
    // world — engines, cached answers, the brush index — is reusable.
    world_ = world;
    ++epoch_;
    components_.clear();
    cache_.Clear();
    canvas_.reset();
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
    canvas_.reset();
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

core::QueryResult LiveEngine::EmptyResult(
    core::AggregateKind kind, core::ExecutionMethod method) const {
  core::QueryResult result;
  const double empty_value =
      (kind == core::AggregateKind::kCount ||
       kind == core::AggregateKind::kSum)
          ? 0.0
          : std::numeric_limits<double>::quiet_NaN();
  result.values.assign(regions_->size(), empty_value);
  result.counts.assign(regions_->size(), 0);
  if (method == core::ExecutionMethod::kBoundedRaster) {
    result.error_bounds.assign(regions_->size(), 0.0);
  }
  return result;
}

StatusOr<core::QueryResult> LiveEngine::ExecuteComposedLocked(
    const core::AggregationQuery& query, core::ExecutionMethod method) {
  const core::AggregateKind kind = query.aggregate.kind;
  obs::QueryProfile* const profile = query.profile;
  std::vector<core::QueryResult> partials;
  partials.reserve(components_.size());
  for (const auto& component : components_) {
    // Each component execution fills profiles of its own (the COUNT half
    // of a bounded-raster AVG batch separately), folded into the caller's
    // below: one shared profile would keep only the last component's costs.
    std::vector<obs::QueryProfile> parts(profile != nullptr ? 2 : 0);
    core::AggregationQuery partial_query;
    partial_query.aggregate = query.aggregate;
    partial_query.filter = query.filter;
    partial_query.control = query.control;
    partial_query.profile = parts.empty() ? nullptr : &parts[0];
    // The shard-merge contract wants SUM partials for AVG (an average of
    // averages is wrong across unequal components).
    if (kind == core::AggregateKind::kAvg) {
      partial_query.aggregate =
          core::AggregateSpec::Sum(query.aggregate.attribute);
    }
    core::QueryResult partial;
    if (kind == core::AggregateKind::kAvg &&
        method == core::ExecutionMethod::kBoundedRaster) {
      // The bounded raster's AVG partial additionally needs COUNT-semantics
      // error bounds, so SUM and COUNT run as one shared-splat batch and
      // the COUNT bounds are grafted on.
      core::AggregationQuery count_query = partial_query;
      count_query.aggregate = core::AggregateSpec::Count();
      count_query.profile = parts.empty() ? nullptr : &parts[1];
      std::vector<core::AggregationQuery> pair;
      pair.push_back(std::move(partial_query));
      pair.push_back(std::move(count_query));
      URBANE_ASSIGN_OR_RETURN(
          std::vector<core::QueryResult> results,
          component->engine->ExecuteMany(std::move(pair), method));
      partial = std::move(results[0]);
      partial.error_bounds = std::move(results[1].error_bounds);
    } else {
      URBANE_ASSIGN_OR_RETURN(
          partial,
          component->engine->Execute(std::move(partial_query), method));
    }
    partials.push_back(std::move(partial));
    for (const obs::QueryProfile& part : parts) {
      if (!part.method.empty()) profile->method = part.method;
      profile->AddComponent(part);
    }
  }
  if (partials.empty()) {
    return EmptyResult(kind, method);
  }
  return shard::MergeShardPartials(kind, partials);
}

StatusOr<core::QueryResult> LiveEngine::ExecuteCachedLocked(
    const core::AggregationQuery& query, core::ExecutionMethod method) {
  const bool cacheable = cache_.enabled();
  if (query.profile != nullptr) {
    query.profile->method = core::ExecutionMethodToString(method);
    query.profile->cache = cacheable ? "miss" : "off";
  }
  std::uint64_t key = 0;
  if (cacheable) {
    key = core::QueryCache::Fingerprint(
        query, method,
        CacheResolution(method, options_.raster_options.resolution), epoch_);
    if (std::optional<core::QueryResult> hit = cache_.Lookup(key)) {
      if (query.profile != nullptr) query.profile->cache = "hit";
      return *std::move(hit);
    }
  }
  URBANE_ASSIGN_OR_RETURN(core::QueryResult result,
                          ExecuteComposedLocked(query, method));
  if (cacheable) {
    cache_.Insert(key, result, CacheValidTime(query.filter));
  }
  return result;
}

StatusOr<core::QueryResult> LiveEngine::Execute(core::AggregationQuery query,
                                                core::ExecutionMethod method,
                                                std::uint64_t* watermark) {
  // The profile's wall time covers the whole composed run, lock wait and
  // snapshot refresh included, like the facade's.
  const double begin =
      query.profile != nullptr ? obs::ProcessUptimeSeconds() : 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  const LiveSnapshot snapshot = table_->Snapshot();
  URBANE_RETURN_IF_ERROR(RefreshLocked(snapshot));
  if (watermark != nullptr) {
    *watermark = snapshot.watermark;
  }
  StatusOr<core::QueryResult> result = ExecuteCachedLocked(query, method);
  if (query.profile != nullptr) {
    query.profile->wall_seconds = obs::ProcessUptimeSeconds() - begin;
  }
  return result;
}

StatusOr<core::QueryResult> LiveEngine::ExecuteAuto(
    core::AggregationQuery query, const core::AccuracyRequirement& accuracy,
    std::uint64_t* watermark, core::QueryPlan* plan) {
  const double begin =
      query.profile != nullptr ? obs::ProcessUptimeSeconds() : 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  const LiveSnapshot snapshot = table_->Snapshot();
  URBANE_RETURN_IF_ERROR(RefreshLocked(snapshot));
  if (watermark != nullptr) {
    *watermark = snapshot.watermark;
  }

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
          selectivity, component->engine->EstimateSelectivity(query.filter));
    }
    weighted_selectivity += selectivity * static_cast<double>(rows);
    total_rows += rows;
  }
  profile.num_points = total_rows;
  profile.selectivity =
      total_rows == 0 ? 1.0
                      : weighted_selectivity / static_cast<double>(total_rows);
  const core::QueryPlan chosen = core::PlanQuery(
      profile, accuracy, options_.raster_options.resolution);
  if (plan != nullptr) {
    *plan = chosen;
  }
  if (query.profile != nullptr) {
    query.profile->planner_choice =
        core::ExecutionMethodToString(chosen.method);
    query.profile->planner_explanation = chosen.explanation;
  }
  StatusOr<core::QueryResult> result =
      ExecuteCachedLocked(query, chosen.method);
  if (query.profile != nullptr) {
    query.profile->wall_seconds = obs::ProcessUptimeSeconds() - begin;
  }
  return result;
}

Status LiveEngine::EnsureCanvasLocked(const LiveSnapshot& snapshot) {
  if (canvas_ != nullptr) {
    bool overflowed = false;
    const std::vector<AppendLogEntry> entries =
        table_->EntriesSince(canvas_seq_, &overflowed);
    if (!overflowed) {
      for (const AppendLogEntry& entry : entries) {
        if (entry.seq > snapshot.append_seq) {
          break;  // rows not in this snapshot; fold them in next time
        }
        if (entry.rows != nullptr) {
          URBANE_RETURN_IF_ERROR(canvas_->Append(*entry.rows));
        }
        canvas_seq_ = entry.seq;
      }
      return Status::OK();
    }
    canvas_.reset();  // unknown batches dropped: rebuild below
  }

  core::TemporalCanvasOptions options = options_.canvas_options;
  options.world = world_;
  if (!options.time_domain.has_value()) {
    // Pin the bin layout to the combined span so later appends never shift
    // it (out-of-domain times clamp into the edge bins).
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    bool any = false;
    for (const auto& component : components_) {
      const auto [t0, t1] = component->table->TimeRange();
      lo = any ? std::min(lo, t0) : t0;
      hi = any ? std::max(hi, t1) : t1;
      any = true;
    }
    options.time_domain = std::make_pair(lo, hi);
  }
  URBANE_ASSIGN_OR_RETURN(
      canvas_,
      core::TemporalCanvasIndex::Build(canvas_seed_, *regions_, options));
  for (const auto& component : components_) {
    URBANE_RETURN_IF_ERROR(canvas_->Append(*component->table));
  }
  canvas_seq_ = snapshot.append_seq;
  return Status::OK();
}

StatusOr<core::QueryResult> LiveEngine::BrushTimeWindow(
    std::int64_t t_begin, std::int64_t t_end, std::int64_t* snapped_begin,
    std::int64_t* snapped_end, std::uint64_t* watermark) {
  std::lock_guard<std::mutex> lock(mu_);
  const LiveSnapshot snapshot = table_->Snapshot();
  URBANE_RETURN_IF_ERROR(RefreshLocked(snapshot));
  URBANE_RETURN_IF_ERROR(EnsureCanvasLocked(snapshot));
  if (watermark != nullptr) {
    *watermark = snapshot.watermark;
  }
  return canvas_->QueryTimeWindow(t_begin, t_end, snapped_begin, snapped_end);
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
