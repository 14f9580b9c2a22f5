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

namespace urbane::core {

SpatialAggregation::SpatialAggregation(const data::PointTable& points,
                                       const data::RegionSet& regions,
                                       const RasterJoinOptions& raster_options,
                                       const IndexJoinOptions& index_options)
    : points_(points),
      regions_(regions),
      index_options_(index_options),
      raster_options_(raster_options) {}

StatusOr<const SpatialAggregationExecutor*> SpatialAggregation::ExecutorLocked(
    ExecutionMethod method) {
  switch (method) {
    case ExecutionMethod::kScan:
      if (!scan_) {
        URBANE_ASSIGN_OR_RETURN(scan_, ScanJoin::Create(points_, regions_));
      }
      return static_cast<const SpatialAggregationExecutor*>(scan_.get());
    case ExecutionMethod::kIndexJoin:
      if (!index_) {
        URBANE_ASSIGN_OR_RETURN(
            index_, IndexJoin::Create(points_, regions_, index_options_));
      }
      return static_cast<const SpatialAggregationExecutor*>(index_.get());
    case ExecutionMethod::kBoundedRaster:
      if (!raster_) {
        URBANE_ASSIGN_OR_RETURN(
            raster_,
            BoundedRasterJoin::Create(points_, regions_, raster_options_));
      }
      return static_cast<const SpatialAggregationExecutor*>(raster_.get());
    case ExecutionMethod::kAccurateRaster:
      if (!accurate_) {
        URBANE_ASSIGN_OR_RETURN(
            accurate_,
            AccurateRasterJoin::Create(points_, regions_, raster_options_));
      }
      return static_cast<const SpatialAggregationExecutor*>(accurate_.get());
  }
  return Status::InvalidArgument("unknown execution method");
}

StatusOr<const SpatialAggregationExecutor*>
SpatialAggregation::ActiveExecutorLocked(ExecutionMethod method) {
  const std::size_t n = num_shards_.load(std::memory_order_relaxed);
  if (n <= 1) {
    return ExecutorLocked(method);
  }
  std::unique_ptr<shard::ShardedExecutor>& slot = sharded_[MethodIndex(method)];
  if (!slot) {
    shard::ShardedExecutorOptions options;
    options.num_shards = n;
    // Block-aligned shard boundaries over a store-backed table: no block
    // straddles two shards, so per-shard pruning stays whole-block.
    if (zone_maps_ != nullptr && !zone_maps_->blocks().empty()) {
      options.align_rows = zone_maps_->blocks().front().row_count;
    }
    URBANE_ASSIGN_OR_RETURN(
        slot, shard::ShardedExecutor::Create(points_, regions_, method,
                                             options, raster_options_,
                                             index_options_));
  }
  return static_cast<const SpatialAggregationExecutor*>(slot.get());
}

StatusOr<const SpatialAggregationExecutor*> SpatialAggregation::Executor(
    ExecutionMethod method) {
  std::lock_guard<std::mutex> lock(state_mu_);
  return ActiveExecutorLocked(method);
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
  for (std::unique_ptr<shard::ShardedExecutor>& slot : sharded_) {
    slot.reset();
  }
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

StatusOr<PartialResult> SpatialAggregation::ExecutePartial(
    AggregationQuery query, ExecutionMethod method) {
  query.points = &points_;
  query.regions = &regions_;
  std::lock_guard<std::mutex> serialize(method_mu_[MethodIndex(method)]);
  return ExecutePartialLocked(std::move(query), method);
}

StatusOr<PartialResult> SpatialAggregation::ExecutePartialLocked(
    AggregationQuery query, ExecutionMethod method) {
  const SpatialAggregationExecutor* executor = nullptr;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    URBANE_ASSIGN_OR_RETURN(executor, ActiveExecutorLocked(method));
  }
  // A query whose deadline expired while queued (e.g. behind the method
  // lock) aborts here instead of paying for a doomed execution. Cache hits
  // are deliberately exempt: they are cheaper than the check is useful.
  URBANE_RETURN_IF_ERROR(query.CheckControl());
  // Zone-map pruning (store-backed tables): skip blocks the filter rules
  // out. Computed after the cache probes (hits never pay for it) and kept
  // alive on this frame through the execution. A caller-supplied range set
  // wins.
  PruneResult prune;
  if (zone_maps_ != nullptr && query.candidate_ranges == nullptr &&
      !query.filter.IsTrivial()) {
    prune = zone_maps_->Prune(query.filter, points_.schema());
    if (obs::MetricsEnabled()) {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      registry.GetCounter("store.blocks_pruned").Add(prune.blocks_pruned);
      registry.GetCounter("store.rows_pruned").Add(prune.rows_pruned);
    }
    if (query.profile != nullptr) {
      query.profile->blocks_total = prune.blocks_total;
      query.profile->blocks_pruned = prune.blocks_pruned;
      query.profile->rows_pruned = prune.rows_pruned;
    }
    query.candidate_ranges = &prune.candidates;
  }
  // Thread-CPU attribution for the dispatch: exact for an unsharded
  // executor; for a sharded pass it is the coordinator's share, and each
  // shard row carries its own worker's CPU (DESIGN.md §12).
  const double cpu_begin =
      query.profile != nullptr ? obs::ThreadCpuSeconds() : 0.0;
  URBANE_ASSIGN_OR_RETURN(PartialResult partial,
                          executor->ExecutePartial(query));
  if (query.profile != nullptr) {
    query.profile->cpu_seconds += obs::ThreadCpuSeconds() - cpu_begin;
  }
  return partial;
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
                          ExecutePartialLocked(query, method));
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
  profile.num_points = points_.size();
  profile.num_regions = regions_.size();
  profile.total_region_vertices = regions_.TotalVertexCount();
  URBANE_ASSIGN_OR_RETURN(profile.selectivity,
                          EstimateSelectivity(query.filter));
  profile.available_shards = num_shards();
  QueryPlan chosen;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    // Points and regions are immutable, so their union extent — an O(n)
    // scan of an in-memory table — is computed by the first plan only.
    if (!plan_world_.has_value()) {
      geometry::BoundingBox world = points_.Bounds();
      world.Extend(regions_.Bounds());
      plan_world_ = world;
    }
    profile.world = *plan_world_;
    profile.has_point_index = index_ != nullptr;
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
  // Honor a tighter epsilon by rebuilding the bounded executor's canvas.
  // The rebuild holds the raster method mutex (no session can be mid-query
  // on the old executor) and bumps the config epoch, which retires every
  // cache entry computed at the old, coarser ε.
  if (chosen.method == ExecutionMethod::kBoundedRaster) {
    std::scoped_lock rebuild(
        method_mu_[MethodIndex(ExecutionMethod::kBoundedRaster)], state_mu_);
    if (chosen.resolution > raster_options_.resolution) {
      raster_options_.resolution = chosen.resolution;
      raster_.reset();
      // The sharded wrapper's inner rasters carry the old canvas too.
      sharded_[MethodIndex(ExecutionMethod::kBoundedRaster)].reset();
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
  URBANE_ASSIGN_OR_RETURN(double estimate,
                          EstimateFilterSelectivity(filter, points_));
  // Zone maps give an exact upper bound (pruned rows cannot match), which
  // sharpens the strided sample when the filter is clustered in few blocks.
  if (zone_maps_ != nullptr) {
    estimate = std::min(
        estimate, zone_maps_->CandidateFraction(filter, points_.schema()));
  }
  return estimate;
}

}  // namespace urbane::core
