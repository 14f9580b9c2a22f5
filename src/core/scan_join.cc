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
  URBANE_ASSIGN_OR_RETURN(
      FilterSelection selection,
      EvaluateFilter(query.filter, points_, query.candidate_ranges));
  costs.filter_seconds = filter_timer.ElapsedSeconds();
  URBANE_RETURN_IF_ERROR(query.CheckControl());
  costs.points_scanned = selection.ids.size();

  const float* attr = nullptr;
  if (query.aggregate.NeedsAttribute()) {
    attr = points_.AttributeByName(query.aggregate.attribute);
  }

  PartialResult result;
  result.regions.resize(regions_.size());
  WallTimer reduce_timer;
  // The ids ascend, so every region accumulates in row order.
  for (const std::uint32_t i : selection.ids) {
    const geometry::Vec2 p{points_.x(i), points_.y(i)};
    const double value = attr ? static_cast<double>(attr[i]) : 1.0;
    rtree_.QueryPoint(p, [&](std::uint32_t region_index) {
      ++costs.pip_tests;
      if (regions_[region_index].geometry.Contains(p)) {
        result.regions[region_index].Add(value);
      }
    });
  }
  costs.reduce_seconds = reduce_timer.ElapsedSeconds();
  costs.query_seconds = timer.ElapsedSeconds();
  PublishExecution(*this, "scan", 1, costs, query.profile);
  return result;
}

}  // namespace urbane::core
