#include "core/scan_join.h"

#include "core/observe.h"
#include "core/raster_join.h"
#include "util/timer.h"

namespace urbane::core {

StatusOr<std::unique_ptr<ScanJoin>> ScanJoin::Create(
    const data::PointTable& points, const data::RegionSet& regions) {
  URBANE_ASSIGN_OR_RETURN(std::shared_ptr<const index::RTree> rtree,
                          BuildRegionIndex(regions));
  return std::make_unique<ScanJoin>(
      points, regions, std::move(rtree),
      std::vector<const data::PointTable*>{&points});
}

StatusOr<std::shared_ptr<const index::RTree>> ScanJoin::BuildRegionIndex(
    const data::RegionSet& regions) {
  URBANE_ASSIGN_OR_RETURN(index::RTree rtree,
                          index::RTree::Build(regions.RegionBounds()));
  return std::make_shared<const index::RTree>(std::move(rtree));
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

  URBANE_ASSIGN_OR_RETURN(const std::vector<internal::SourcePass> passes,
                          internal::FilterSources(sources_, query, costs));

  PartialResult result;
  result.regions.resize(regions_.size());
  WallTimer reduce_timer;
  // Each source's ids ascend and the sources follow row order, so every
  // region accumulates in concatenated-row order.
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    const data::PointTable& table = *sources_[s];
    const float* attr = passes[s].attr;
    for (const std::uint32_t i : passes[s].selection.ids) {
      const geometry::Vec2 p{table.x(i), table.y(i)};
      const double value = attr ? static_cast<double>(attr[i]) : 1.0;
      rtree_->QueryPoint(p, [&](std::uint32_t region_index) {
        ++costs.pip_tests;
        if (regions_[region_index].geometry.Contains(p)) {
          result.regions[region_index].Add(value);
        }
      });
    }
  }
  costs.reduce_seconds = reduce_timer.ElapsedSeconds();
  costs.query_seconds = timer.ElapsedSeconds();
  PublishExecution(*this, "scan", 1, costs, query.profile);
  return result;
}

}  // namespace urbane::core
