#include "core/scan_join.h"

#include "core/observe.h"
#include "util/timer.h"

namespace urbane::core {

StatusOr<std::unique_ptr<ScanJoin>> ScanJoin::Create(
    const data::PointTable& points, const data::RegionSet& regions) {
  URBANE_ASSIGN_OR_RETURN(index::RTree rtree,
                          index::RTree::Build(regions.RegionBounds()));
  return std::unique_ptr<ScanJoin>(
      new ScanJoin(points, regions, std::move(rtree)));
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

  PartialResult result;
  result.regions.resize(regions_.size());
  WallTimer reduce_timer;
  // Candidate ranges (zone-map pruning) narrow the walk to rows the filter
  // might match; visit order stays ascending, so accumulation is
  // bit-identical to the dense loop.
  ForEachCandidateRow(query.candidate_ranges, 0, points_.size(),
                      [&](std::uint64_t i) {
    if (!filter.Matches(points_, i)) {
      return;
    }
    ++costs.points_scanned;
    const geometry::Vec2 p{points_.x(i), points_.y(i)};
    const double value = attr ? static_cast<double>(attr[i]) : 1.0;
    rtree_.QueryPoint(p, [&](std::uint32_t region_index) {
      ++costs.pip_tests;
      if (regions_[region_index].geometry.Contains(p)) {
        result.regions[region_index].Add(value);
      }
    });
  });
  costs.reduce_seconds = reduce_timer.ElapsedSeconds();
  costs.query_seconds = timer.ElapsedSeconds();
  PublishExecution(*this, "scan", 1, costs, query.profile);
  return result;
}

}  // namespace urbane::core
