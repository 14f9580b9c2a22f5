#include "shard/sharded_executor.h"

#include <atomic>
#include <utility>

#include "core/observe.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "util/timer.h"

namespace urbane::shard {

namespace {

Status ValidateExplicitShards(const std::vector<core::RowRange>& shards,
                              std::uint64_t rows) {
  std::uint64_t expect = 0;
  for (const core::RowRange& s : shards) {
    if (s.begin != expect || s.end < s.begin) {
      return Status::InvalidArgument(
          "explicit shards must tile the row space in ascending order");
    }
    expect = s.end;
  }
  if (expect != rows) {
    return Status::InvalidArgument("explicit shards do not cover all rows");
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::unique_ptr<ShardedExecutor>> ShardedExecutor::Create(
    const data::PointTable& points, const data::RegionSet& regions,
    core::ExecutionMethod method, const ShardedExecutorOptions& options,
    const core::RasterJoinOptions& raster_options,
    const core::IndexJoinOptions& index_options) {
  std::unique_ptr<core::SpatialAggregationExecutor> inner;
  switch (method) {
    case core::ExecutionMethod::kScan: {
      URBANE_ASSIGN_OR_RETURN(inner, core::ScanJoin::Create(points, regions));
      break;
    }
    case core::ExecutionMethod::kIndexJoin: {
      URBANE_ASSIGN_OR_RETURN(
          inner, core::IndexJoin::Create(points, regions, index_options));
      break;
    }
    case core::ExecutionMethod::kBoundedRaster: {
      URBANE_ASSIGN_OR_RETURN(
          inner,
          core::BoundedRasterJoin::Create(points, regions, raster_options));
      break;
    }
    case core::ExecutionMethod::kAccurateRaster: {
      URBANE_ASSIGN_OR_RETURN(
          inner,
          core::AccurateRasterJoin::Create(points, regions, raster_options));
      break;
    }
  }
  if (inner == nullptr) {
    return Status::InvalidArgument("unknown execution method");
  }
  return Wrap(std::move(inner), points.size(), method, options);
}

std::unique_ptr<ShardedExecutor> ShardedExecutor::Wrap(
    std::unique_ptr<core::SpatialAggregationExecutor> inner,
    std::uint64_t rows, core::ExecutionMethod method,
    const ShardedExecutorOptions& options) {
  std::size_t m = options.num_shards == 0 ? 1 : options.num_shards;
  if (!options.explicit_shards.empty()) {
    m = options.explicit_shards.size();
  }
  return std::unique_ptr<ShardedExecutor>(
      new ShardedExecutor(rows, method, options, m, std::move(inner)));
}

StatusOr<core::PartialResult> ShardedExecutor::ExecuteShard(
    const core::AggregationQuery& query, std::size_t s,
    const core::RowRangeSet& candidates, obs::QueryProfile* slot) const {
  if (options_.fault_injector) {
    URBANE_RETURN_IF_ERROR(options_.fault_injector(s));
  }
  URBANE_RETURN_IF_ERROR(query.CheckControl());

  core::AggregationQuery shard_query = query;
  shard_query.profile = slot;  // the coordinator owns the breakdown
  shard_query.candidate_ranges = &candidates;
  return inner_->ExecutePartial(shard_query);
}

StatusOr<core::PartialResult> ShardedExecutor::ExecutePartial(
    const core::AggregationQuery& query) const {
  URBANE_RETURN_IF_ERROR(query.Validate());

  const std::uint64_t rows = rows_;
  ShardPlan plan;
  if (!options_.explicit_shards.empty()) {
    URBANE_RETURN_IF_ERROR(
        ValidateExplicitShards(options_.explicit_shards, rows));
    plan.shards = options_.explicit_shards;
  } else {
    plan = MakeShardPlan(rows, num_shards_, options_.align_rows);
  }
  const std::size_t m = plan.size();

  const bool metrics = obs::MetricsEnabled();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (metrics) {
    registry.GetCounter("shard.queries").Add(1);
    registry.GetCounter("shard.fanout").Add(m);
    registry.GetGauge("shard.inflight").Add(static_cast<double>(m));
  }
  WallTimer timer;

  // Candidate sets must outlive the scatter; one slot per shard, fixed
  // before any task runs.
  std::vector<core::RowRangeSet> candidates;
  candidates.reserve(m);
  std::size_t empty_shards = 0;
  for (std::size_t s = 0; s < m; ++s) {
    candidates.push_back(
        IntersectCandidates(query.candidate_ranges, plan.shards[s]));
    if (candidates.back().empty()) ++empty_shards;
  }

  // Scatter. Each task writes ONLY its own slot; the coordinator reads the
  // slots after Batch::Wait (the pool's completion acts as the fence).
  // Failure latches are per-slot too, so the first-failing *shard index* —
  // not the first-failing completion — decides the reported status.
  std::vector<core::PartialResult> partials(m);
  std::vector<Status> statuses(m, Status::OK());
  // Per-shard slot profiles: the inner executor reports each shard's pass
  // costs into its own slot, and with a profile attached the slot also
  // takes the shard's wall/CPU samples. Each task writes only its own slot
  // (same fence discipline as `partials`); empty unless someone observes,
  // so the unobserved path never touches the thread-CPU clock.
  const bool profiling = query.profile != nullptr;
  std::vector<obs::QueryProfile> slots(profiling || metrics ? m : 0);
  WallTimer scatter_timer;
  const bool inline_scatter = options_.serial_scatter || m == 1;
  auto run_shard = [&](std::size_t s) {
    WallTimer shard_timer;
    const double cpu_begin = profiling ? obs::ThreadCpuSeconds() : 0.0;
    StatusOr<core::PartialResult> partial = ExecuteShard(
        query, s, candidates[s], slots.empty() ? nullptr : &slots[s]);
    if (profiling) {
      slots[s].cpu_seconds = obs::ThreadCpuSeconds() - cpu_begin;
      slots[s].wall_seconds = shard_timer.ElapsedSeconds();
    }
    if (partial.ok()) {
      // The hook gates *successful* publishes only: a failed shard has no
      // partial to hold back, and the fault suite counts hook calls to
      // prove the healthy shards really did finish before being discarded.
      if (options_.completion_hook) {
        options_.completion_hook(s);
      }
      partials[s] = std::move(partial).value();
    } else {
      statuses[s] = partial.status();
    }
  };
  if (inline_scatter) {
    for (std::size_t s = 0; s < m; ++s) run_shard(s);
  } else {
    ThreadPool* pool =
        options_.pool != nullptr ? options_.pool : DefaultThreadPool();
    ThreadPool::Batch batch = pool->CreateBatch();
    for (std::size_t s = 0; s < m; ++s) {
      batch.Submit([&run_shard, s] { run_shard(s); });
    }
    batch.Wait();
  }
  const double scatter_seconds = scatter_timer.ElapsedSeconds();

  if (metrics) {
    registry.GetGauge("shard.inflight").Add(-static_cast<double>(m));
    registry.GetCounter("shard.empty_shards").Add(empty_shards);
  }

  // Gather: any shard failure fails the whole query — no partial merge,
  // ever. Ties between shards break by shard index for reproducibility.
  // The slots' counters fold in shard-index order; their pass times
  // overlap across shards and stay in the per-shard rows.
  obs::ProfilePassCosts costs;
  for (std::size_t s = 0; s < m; ++s) {
    if (!statuses[s].ok()) {
      if (metrics) registry.GetCounter("shard.failures").Add(1);
      return statuses[s];
    }
    if (!slots.empty()) costs.AddCounters(slots[s].totals);
  }
  URBANE_RETURN_IF_ERROR(query.CheckControl());

  // Merge in ascending shard index — never completion order — so the
  // merged partial is a function of the shard partials alone.
  WallTimer merge_timer;
  core::PartialResult merged;
  merged.regions.resize(query.regions->size());
  for (const core::PartialResult& partial : partials) {
    const Status status = merged.Merge(partial);
    if (!status.ok()) {
      if (metrics) registry.GetCounter("shard.failures").Add(1);
      return status;
    }
  }
  costs.reduce_seconds = merge_timer.ElapsedSeconds();

  // Profile breakdown, in shard-index order (never completion order) so the
  // table is reproducible at a fixed shard count. The per-shard rows are
  // the slots folded above, so they sum exactly to the executor totals.
  if (profiling) {
    query.profile->scatter_seconds = scatter_seconds;
    query.profile->merge_seconds = costs.reduce_seconds;
    query.profile->shards.clear();
    query.profile->shards.reserve(m);
    for (std::size_t s = 0; s < m; ++s) {
      obs::ShardProfileEntry entry;
      entry.index = s;
      entry.rows_begin = plan.shards[s].begin;
      entry.rows_end = plan.shards[s].end;
      entry.candidate_rows = candidates[s].total_rows();
      entry.wall_seconds = slots[s].wall_seconds;
      entry.cpu_seconds = slots[s].cpu_seconds;
      entry.costs = slots[s].totals;
      query.profile->shards.push_back(entry);
    }
  }

  costs.query_seconds = timer.ElapsedSeconds();
  if (metrics) {
    registry.GetHistogram("shard.merge_seconds").Observe(costs.reduce_seconds);
  }
  core::PublishExecution(*this, "sharded", m, costs, query.profile);
  return merged;
}

}  // namespace urbane::shard
