#include "core/spatial_aggregation.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/observe.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "obs/slow_query_log.h"
#include "util/timer.h"

namespace urbane::core {

SpatialAggregation::SpatialAggregation(const data::PointTable& points,
                                       const data::RegionSet& regions,
                                       const RasterJoinOptions& raster_options,
                                       const IndexJoinOptions& index_options)
    : points_(points),
      regions_(regions),
      index_options_(index_options),
      canvas_world_(CanvasWorld(regions)),
      raster_options_(raster_options) {
  components_.emplace_back();
  components_.front().rows.table = &points;
}

void SpatialAggregation::AttachZoneMaps(const ZoneMapIndex* zone_maps) {
  std::lock_guard<std::mutex> lock(state_mu_);
  components_.front().rows.zone_maps = zone_maps;
}

void SpatialAggregation::SetComponents(std::vector<Component> components) {
  const auto name = [](const Component& c) -> const void* {
    return c.owner != nullptr ? c.owner.get() : c.table;
  };
  std::scoped_lock lock(method_mu_[0], method_mu_[1], method_mu_[2],
                        method_mu_[3], state_mu_);
  bool changed = components.size() != components_.size();
  std::vector<ComponentState> next(components.size());
  for (std::size_t i = 0; i < components.size(); ++i) {
    for (std::size_t j = 0; j < components_.size(); ++j) {
      ComponentState& held = components_[j];
      if (held.rows.table != nullptr &&
          name(held.rows) == name(components[i])) {
        next[i] = std::move(held);
        held.rows = Component();
        changed = changed || i != j;
        break;
      }
    }
    changed = changed || next[i].rows.table == nullptr;
    next[i].rows = std::move(components[i]);
  }
  components_ = std::move(next);
  if (changed) {
    // The composed raster executors list the old components; the region-
    // side state they share stays.
    for (RasterJoinState& join : raster_) join.executor.reset();
  }
}

namespace {

// Shard options for a fan-out of `num_shards` over rows that start with
// `first`: block-aligned boundaries over a store-backed table, so no block
// straddles two shards and per-shard pruning stays whole-block.
shard::ShardedExecutorOptions ShardOptions(
    const SpatialAggregation::Component& first, std::size_t num_shards) {
  shard::ShardedExecutorOptions options;
  options.num_shards = num_shards;
  if (first.zone_maps != nullptr && !first.zone_maps->blocks().empty()) {
    options.align_rows = first.zone_maps->blocks().front().row_count;
  }
  return options;
}

// Zone-map pruning of a store-backed component: the blocks `filter` rules
// out, booked into `part` and the store.* counters. Empty for an in-memory
// component or a trivial filter, which prune nothing.
std::optional<PruneResult> PruneComponent(
    const SpatialAggregation::Component& rows, const FilterSpec& filter,
    obs::QueryProfile& part) {
  if (rows.zone_maps == nullptr || filter.IsTrivial()) {
    return std::nullopt;
  }
  PruneResult prune = rows.zone_maps->Prune(filter, rows.table->schema());
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("store.blocks_pruned").Add(prune.blocks_pruned);
    registry.GetCounter("store.rows_pruned").Add(prune.rows_pruned);
  }
  part.blocks_total += prune.blocks_total;
  part.blocks_pruned += prune.blocks_pruned;
  part.rows_pruned += prune.rows_pruned;
  return prune;
}

}  // namespace

StatusOr<const SpatialAggregationExecutor*> SpatialAggregation::ExecutorLocked(
    ComponentState& component, ExecutionMethod method, PrepareTally* tally) {
  const data::PointTable& table = *component.rows.table;
  const std::size_t n = num_shards_.load(std::memory_order_relaxed);
  if (n > 1) {
    std::unique_ptr<shard::ShardedExecutor>& slot =
        component.sharded[MethodIndex(method)];
    if (!slot) {
      WallTimer timer;
      URBANE_ASSIGN_OR_RETURN(
          slot, shard::ShardedExecutor::Create(
                    table, regions_, method, ShardOptions(component.rows, n),
                    raster_options_, index_options_));
      tally->seconds += timer.ElapsedSeconds();
    }
    return static_cast<const SpatialAggregationExecutor*>(slot.get());
  }
  std::unique_ptr<SpatialAggregationExecutor>& slot =
      component.plain[MethodIndex(method)];
  if (!slot) {
    WallTimer timer;
    if (method == ExecutionMethod::kScan) {
      URBANE_ASSIGN_OR_RETURN(slot, ScanJoin::Create(table, regions_));
    } else {
      URBANE_ASSIGN_OR_RETURN(
          slot, IndexJoin::Create(table, regions_, index_options_));
    }
    tally->seconds += timer.ElapsedSeconds();
  }
  return static_cast<const SpatialAggregationExecutor*>(slot.get());
}

StatusOr<const SpatialAggregationExecutor*>
SpatialAggregation::RasterExecutorLocked(ExecutionMethod method,
                                         PrepareTally* tally) {
  RasterJoinState& join = raster_[RasterIndex(method)];
  if (join.executor) {
    return static_cast<const SpatialAggregationExecutor*>(
        join.executor.get());
  }
  WallTimer timer;
  const bool accurate = method == ExecutionMethod::kAccurateRaster;
  if (!join.region) {
    URBANE_ASSIGN_OR_RETURN(
        const raster::Viewport canvas,
        MakeValidatedCanvas(regions_, raster_options_.resolution));
    if (accurate) {
      URBANE_ASSIGN_OR_RETURN(
          join.region, AccurateRasterJoin::BuildRegionState(regions_, canvas));
    } else {
      URBANE_ASSIGN_OR_RETURN(join.region,
                              BoundedRasterJoin::BuildRegionState(
                                  regions_, canvas, raster_options_));
    }
    ++tally->region_states;
  }
  RasterSources sources;
  std::uint64_t rows = 0;
  for (ComponentState& component : components_) {
    std::shared_ptr<const RasterPointSource>& source =
        component.raster[RasterIndex(method)];
    if (!source) {
      source = RasterPointSource::Build(*join.region, *component.rows.table);
      ++tally->point_states;
    }
    sources.push_back(source);
    rows += component.rows.table->size();
  }
  std::unique_ptr<SpatialAggregationExecutor> executor;
  if (accurate) {
    executor = std::make_unique<AccurateRasterJoin>(
        points_, regions_, join.region, std::move(sources));
  } else {
    executor = std::make_unique<BoundedRasterJoin>(
        points_, regions_, raster_options_, join.region, std::move(sources));
  }
  const std::size_t n = num_shards_.load(std::memory_order_relaxed);
  if (n > 1) {
    executor = shard::ShardedExecutor::Wrap(
        std::move(executor), rows, method,
        ShardOptions(components_.front().rows, n));
  }
  join.executor = std::move(executor);
  tally->seconds += timer.ElapsedSeconds();
  return static_cast<const SpatialAggregationExecutor*>(join.executor.get());
}

void SpatialAggregation::set_num_shards(std::size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  // No query may be in flight on the old fan-out while it changes, and
  // cached results from the old configuration must never hit again (float
  // SUM/AVG can differ bitwise across fan-outs) — same discipline as the
  // ExecuteAuto resolution rebuild.
  std::scoped_lock lock(method_mu_[0], method_mu_[1], method_mu_[2],
                        method_mu_[3], state_mu_);
  if (num_shards_.load(std::memory_order_relaxed) == num_shards) {
    return;
  }
  num_shards_.store(num_shards, std::memory_order_release);
  for (ComponentState& component : components_) {
    for (std::unique_ptr<shard::ShardedExecutor>& slot : component.sharded) {
      slot.reset();
    }
  }
  for (RasterJoinState& join : raster_) join.executor.reset();
  config_epoch_.fetch_add(1, std::memory_order_acq_rel);
}

void SpatialAggregation::set_result_cache_capacity(std::size_t capacity) {
  cache_.set_max_entries(capacity);
}

std::uint64_t SpatialAggregation::Fingerprint(const AggregationQuery& query,
                                              ExecutionMethod method) const {
  int resolution = 0;
  if (method == ExecutionMethod::kBoundedRaster ||
      method == ExecutionMethod::kAccurateRaster) {
    std::lock_guard<std::mutex> lock(state_mu_);
    resolution = raster_options_.resolution;
  }
  return QueryCache::Fingerprint(query, method, resolution, config_epoch());
}

StatusOr<PartialResult> SpatialAggregation::ExecuteComponentsLocked(
    const AggregationQuery& query, ExecutionMethod method) {
  URBANE_RETURN_IF_ERROR(query.Validate());
  // A query whose deadline expired while queued (e.g. behind the method
  // lock) aborts here instead of paying for a doomed execution. Cache hits
  // are deliberately exempt: they are cheaper than the check is useful.
  URBANE_RETURN_IF_ERROR(query.CheckControl());
  PartialResult merged;
  if (components_.empty()) {
    // No rows: the answer of an engine over zero rows.
    merged.regions.resize(regions_.size());
    if (method == ExecutionMethod::kBoundedRaster &&
        raster_options_.compute_error_bounds) {
      merged.error_bounds.assign(regions_.size(), 0.0);
    }
    return merged;
  }
  obs::QueryProfile* const profile = query.profile;
  PrepareTally tally;
  // One executor pass over the rows of `points` — a component's table, or
  // for a raster method every component's rows, concatenated — into a
  // profile part of its own, folded into the caller's: one shared profile
  // would keep only the last component's costs.
  const auto run = [&](const SpatialAggregationExecutor& executor,
                       const data::PointTable* points,
                       const RowRangeSet* candidates,
                       obs::QueryProfile& part) -> StatusOr<PartialResult> {
    AggregationQuery pass = query;
    pass.points = points;
    pass.profile = profile != nullptr ? &part : nullptr;
    pass.candidate_ranges = candidates;
    // Thread-CPU attribution for the dispatch: exact for an unsharded
    // executor; for a sharded pass it is the coordinator's share, and each
    // shard row carries its own worker's CPU (DESIGN.md §12).
    const double cpu_begin =
        profile != nullptr ? obs::ThreadCpuSeconds() : 0.0;
    URBANE_ASSIGN_OR_RETURN(PartialResult partial,
                            executor.ExecutePartial(pass));
    if (profile != nullptr) {
      part.cpu_seconds += obs::ThreadCpuSeconds() - cpu_begin;
      if (!part.method.empty()) profile->method = part.method;
      profile->AddComponent(part);
    }
    return partial;
  };

  if (Composes(method)) {
    const SpatialAggregationExecutor* executor = nullptr;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      URBANE_ASSIGN_OR_RETURN(executor, RasterExecutorLocked(method, &tally));
    }
    // Zone-map pruning per store-backed component, its candidate blocks
    // offset by the component's first row in the concatenated row space.
    // Computed after the cache probes (hits never pay for it).
    obs::QueryProfile part;
    std::vector<RowRange> candidates;
    bool pruned = false;
    std::uint64_t first = 0;
    for (const ComponentState& component : components_) {
      const std::uint64_t rows = component.rows.table->size();
      if (std::optional<PruneResult> prune =
              PruneComponent(component.rows, query.filter, part)) {
        pruned = true;
        for (const RowRange& range : prune->candidates.ranges()) {
          candidates.push_back({first + range.begin, first + range.end});
        }
      } else {
        candidates.push_back({first, first + rows});
      }
      first += rows;
    }
    const RowRangeSet candidate_set(std::move(candidates));
    URBANE_ASSIGN_OR_RETURN(
        merged, run(*executor, query.points,
                    pruned ? &candidate_set : nullptr, part));
  } else {
    for (std::size_t i = 0; i < components_.size(); ++i) {
      const SpatialAggregationExecutor* executor = nullptr;
      {
        std::lock_guard<std::mutex> lock(state_mu_);
        URBANE_ASSIGN_OR_RETURN(
            executor, ExecutorLocked(components_[i], method, &tally));
      }
      obs::QueryProfile part;
      const std::optional<PruneResult> prune =
          PruneComponent(components_[i].rows, query.filter, part);
      URBANE_ASSIGN_OR_RETURN(
          PartialResult partial,
          run(*executor, components_[i].rows.table,
              prune ? &prune->candidates : nullptr, part));
      if (i == 0) {
        merged = std::move(partial);
      } else {
        URBANE_RETURN_IF_ERROR(merged.Merge(partial));
      }
    }
  }

  if (profile != nullptr) {
    profile->prepare_seconds += tally.seconds;
  }
  if (tally.seconds > 0.0 && obs::MetricsEnabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    registry.GetHistogram("query.prepare_seconds").Observe(tally.seconds);
    registry.GetCounter("query.region_state_builds").Add(tally.region_states);
    registry.GetCounter("query.point_state_builds").Add(tally.point_states);
  }
  return merged;
}

StatusOr<QueryResult> SpatialAggregation::ExecuteCached(
    const AggregationQuery& query, ExecutionMethod method, bool* cache_hit) {
  const bool use_cache = cache_.enabled();
  if (query.profile != nullptr) {
    query.profile->method = ExecutionMethodToString(method);
    query.profile->cache = use_cache ? "miss" : "off";
  }
  if (use_cache) {
    // Fast path: a hit costs one shard mutex, no executor serialization.
    const std::uint64_t key = Fingerprint(query, method);
    if (std::optional<QueryResult> hit = cache_.Lookup(key)) {
      if (query.profile != nullptr) query.profile->cache = "hit";
      if (cache_hit != nullptr) *cache_hit = true;
      return std::move(*hit);
    }
  }
  std::lock_guard<std::mutex> serialize(method_mu_[MethodIndex(method)]);
  std::uint64_t key = 0;
  if (use_cache) {
    // Re-fingerprint under the method lock: the config (and thus the key)
    // is now stable, and a session that computed this entry while we waited
    // for the lock turns this into a hit.
    key = Fingerprint(query, method);
    if (std::optional<QueryResult> hit =
            cache_.Lookup(key, /*record_miss=*/false)) {
      if (query.profile != nullptr) query.profile->cache = "hit";
      if (cache_hit != nullptr) *cache_hit = true;
      return std::move(*hit);
    }
  }
  URBANE_ASSIGN_OR_RETURN(PartialResult partial,
                          ExecuteComponentsLocked(query, method));
  QueryResult result = partial.Finalize(query.aggregate.kind);
  if (use_cache) {
    cache_.Insert(key, result, query.filter);
  }
  return result;
}

StatusOr<QueryResult> SpatialAggregation::Execute(AggregationQuery query,
                                                  ExecutionMethod method) {
  query.points = &points_;
  query.regions = &regions_;
  if (QueryUnobserved(query)) {
    // The obs-off == baseline guarantee: three relaxed loads and one
    // pointer test, then the unchanged query path.
    return ExecuteCached(query, method, nullptr);
  }
  return ObserveQuery(
      query, method, [&] { return Fingerprint(query, method); },
      [&](bool* cache_hit) { return ExecuteCached(query, method, cache_hit); });
}

StatusOr<QueryResult> SpatialAggregation::ExecuteAuto(
    AggregationQuery query, const AccuracyRequirement& accuracy,
    QueryPlan* plan) {
  query.points = &points_;
  query.regions = &regions_;
  URBANE_RETURN_IF_ERROR(query.Validate());
  // An armed recorder's profile is attached before planning, so a
  // committed record carries the planner's choice and explanation;
  // Execute below reuses it.
  const std::unique_ptr<obs::QueryProfile> armed_profile =
      obs::SlowQueryLog::Global().armed() ? AttachArmedProfile(query)
                                          : nullptr;

  WorkloadProfile profile;
  profile.num_regions = regions_.size();
  profile.total_region_vertices = regions_.TotalVertexCount();
  // Sampled without state_mu_: concurrent sessions plan in parallel.
  URBANE_ASSIGN_OR_RETURN(profile.selectivity,
                          EstimateSelectivity(query.filter));
  profile.available_shards = num_shards();
  QueryPlan chosen;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    profile.world = canvas_world_;
    const std::size_t index = MethodIndex(ExecutionMethod::kIndexJoin);
    profile.has_point_index = !components_.empty();
    for (const ComponentState& component : components_) {
      profile.num_points += component.rows.table->size();
      profile.has_point_index = profile.has_point_index &&
                                (component.plain[index] != nullptr ||
                                 component.sharded[index] != nullptr);
    }
    chosen = PlanQuery(profile, accuracy, raster_options_.resolution);
  }
  if (plan != nullptr) {
    *plan = chosen;
  }
  if (query.profile != nullptr) {
    query.profile->planner_choice = ExecutionMethodToString(chosen.method);
    query.profile->planner_explanation = chosen.explanation;
  }
  if (obs::JournalEnabled()) {
    obs::Event chose;
    chose.kind = obs::EventKind::kPlannerChoose;
    chose.method = static_cast<std::uint8_t>(chosen.method);
    chose.fingerprint = Fingerprint(query, chosen.method);
    chose.value = chosen.method == ExecutionMethod::kScan ? chosen.cost_scan
                  : chosen.method == ExecutionMethod::kIndexJoin
                      ? chosen.cost_index
                      : chosen.cost_raster;
    obs::EmitEvent(chose);
  }
  // Honor a tighter epsilon by rebuilding the bounded join on a finer
  // canvas: its region-side state, every component's point-side state and
  // the composed executor. The rebuild holds the raster method mutex (no
  // session can be mid-query on the old state) and bumps the config epoch,
  // which retires every cache entry computed at the old, coarser ε.
  if (chosen.method == ExecutionMethod::kBoundedRaster) {
    std::scoped_lock rebuild(
        method_mu_[MethodIndex(ExecutionMethod::kBoundedRaster)], state_mu_);
    if (chosen.resolution > raster_options_.resolution) {
      raster_options_.resolution = chosen.resolution;
      const std::size_t bounded =
          RasterIndex(ExecutionMethod::kBoundedRaster);
      raster_[bounded] = RasterJoinState();
      for (ComponentState& component : components_) {
        component.raster[bounded].reset();
      }
      config_epoch_.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  return Execute(std::move(query), chosen.method);
}

StatusOr<double> SpatialAggregation::EstimateSelectivity(
    const FilterSpec& filter) const {
  if (filter.IsTrivial()) {
    return 1.0;
  }
  std::vector<Component> components;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    components.reserve(components_.size());
    for (const ComponentState& component : components_) {
      components.push_back(component.rows);
    }
  }
  double weighted = 0.0;
  std::size_t rows = 0;
  for (const Component& component : components) {
    URBANE_ASSIGN_OR_RETURN(double estimate,
                            EstimateFilterSelectivity(filter, *component.table));
    // Zone maps give an exact upper bound (pruned rows cannot match), which
    // sharpens the strided sample when the filter is clustered in few
    // blocks.
    if (component.zone_maps != nullptr) {
      estimate = std::min(estimate, component.zone_maps->CandidateFraction(
                                        filter, component.table->schema()));
    }
    if (components.size() == 1) {
      return estimate;
    }
    weighted += estimate * static_cast<double>(component.table->size());
    rows += component.table->size();
  }
  return rows == 0 ? 1.0 : weighted / static_cast<double>(rows);
}

}  // namespace urbane::core
