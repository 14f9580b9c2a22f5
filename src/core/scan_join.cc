#include "core/scan_join.h"

#include <algorithm>

#include "core/observe.h"
#include "util/timer.h"

namespace urbane::core {

StatusOr<std::unique_ptr<ScanJoin>> ScanJoin::Create(
    const data::PointTable& points, const data::RegionSet& regions,
    const ExecutionContext& exec) {
  URBANE_ASSIGN_OR_RETURN(index::RTree rtree,
                          index::RTree::Build(regions.RegionBounds()));
  return std::unique_ptr<ScanJoin>(
      new ScanJoin(points, regions, std::move(rtree), exec));
}

StatusOr<PartialResult> ScanJoin::ExecutePartial(
    const AggregationQuery& query) const {
  URBANE_RETURN_IF_ERROR(query.Validate());
  if (query.points != &points_ || query.regions != &regions_) {
    return Status::FailedPrecondition(
        "ScanJoin was created for a different table/region set");
  }
  obs::ProfilePassCosts costs;
  WallTimer timer;

  WallTimer filter_timer;
  URBANE_ASSIGN_OR_RETURN(CompiledFilter filter,
                          CompiledFilter::Compile(query.filter, points_));
  costs.filter_seconds = filter_timer.ElapsedSeconds();
  URBANE_RETURN_IF_ERROR(query.CheckControl());

  const float* attr = nullptr;
  if (query.aggregate.NeedsAttribute()) {
    attr = points_.AttributeByName(query.aggregate.attribute);
  }

  // Points are partitioned across the pool; each worker scans its range
  // into a private per-region accumulator vector (the R-tree and filter
  // are read-only). Partials merge in partition order, so COUNT is
  // bit-identical to the serial scan and float SUM/AVG only reorders the
  // summation (1e-6-relative).
  const std::size_t n = points_.size();
  const std::size_t parts =
      n < exec_.min_parallel_points ? 1 : exec_.EffectiveThreads();
  ExecutionContext scan_exec = exec_;
  if (parts <= 1) {
    scan_exec.num_threads = 1;
  }
  std::vector<std::vector<Accumulator>> partials(
      parts, std::vector<Accumulator>(regions_.size()));
  std::vector<obs::ProfilePassCosts> worker_costs(parts);
  WallTimer reduce_timer;
  ForEachPartition(scan_exec, n, [&](std::size_t part, std::size_t begin,
                                     std::size_t end) {
    std::vector<Accumulator>& accumulators = partials[part];
    obs::ProfilePassCosts& ws = worker_costs[part];
    // Candidate ranges (zone-map pruning) narrow the walk to rows the
    // filter might match; visit order stays ascending, so accumulation is
    // bit-identical to the dense loop.
    ForEachCandidateRow(query.candidate_ranges, begin, end,
                        [&](std::uint64_t i) {
      if (!filter.Matches(points_, i)) {
        return;
      }
      ++ws.points_scanned;
      const geometry::Vec2 p{points_.x(i), points_.y(i)};
      const double value = attr ? static_cast<double>(attr[i]) : 1.0;
      rtree_.QueryPoint(p, [&](std::uint32_t region_index) {
        ++ws.pip_tests;
        if (regions_[region_index].geometry.Contains(p)) {
          accumulators[region_index].Add(value);
        }
      });
    });
  });
  PartialResult result;
  result.regions = std::move(partials[0]);
  for (std::size_t part = 1; part < parts; ++part) {
    for (std::size_t r = 0; r < regions_.size(); ++r) {
      result.regions[r].Merge(partials[part][r]);
    }
  }
  for (const obs::ProfilePassCosts& ws : worker_costs) {
    costs.AddCounters(ws);
  }
  costs.reduce_seconds = reduce_timer.ElapsedSeconds();
  costs.query_seconds = timer.ElapsedSeconds();
  PublishExecution(*this, "scan", exec_.EffectiveThreads(), costs,
                   query.profile);
  return result;
}

}  // namespace urbane::core
