#include "core/index_join.h"

#include "core/observe.h"
#include "util/timer.h"

namespace urbane::core {

StatusOr<std::unique_ptr<IndexJoin>> IndexJoin::Create(
    const data::PointTable& points, const data::RegionSet& regions,
    const IndexJoinOptions& options) {
  // Index bounds must cover all points; pad slightly so max-edge points
  // land in the last cell row/column.
  geometry::BoundingBox bounds = points.Bounds();
  if (bounds.IsEmpty()) {
    bounds = geometry::BoundingBox(0, 0, 1, 1);
  }
  bounds = bounds.Expanded(1e-6 * std::max(1.0, bounds.Width()));
  URBANE_ASSIGN_OR_RETURN(
      index::GridIndex grid,
      index::GridIndex::BuildAuto(points.xs(), points.ys(), points.size(),
                                  bounds, options.target_points_per_cell));
  return std::unique_ptr<IndexJoin>(
      new IndexJoin(points, regions, std::move(grid), options));
}

StatusOr<PartialResult> IndexJoin::ExecutePartial(
    const AggregationQuery& query) const {
  URBANE_RETURN_IF_ERROR(query.Validate());
  if (query.points != &points_ || query.regions != &regions_) {
    return Status::FailedPrecondition(
        "IndexJoin was created for a different table/region set");
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
  auto value_of = [&](std::uint32_t id) {
    return attr ? static_cast<double>(attr[id]) : 1.0;
  };

  const std::size_t num_regions = regions_.size();
  PartialResult result;
  result.regions.resize(num_regions);

  WallTimer reduce_timer;
  for (std::size_t r = 0; r < num_regions; ++r) {
    Accumulator& acc = result.regions[r];
    for (const geometry::Polygon& part : regions_[r].geometry.parts()) {
      grid_.ClassifyCells(
          part,
          /*interior=*/
          [&](int cx, int cy) {
            const std::uint32_t* cell_begin = grid_.CellBegin(cx, cy);
            const std::uint32_t* cell_end = grid_.CellEnd(cx, cy);
            for (const std::uint32_t* it = cell_begin; it != cell_end; ++it) {
              if (selection.bitmap[*it] == 0) {
                continue;
              }
              acc.Add(value_of(*it));
              ++costs.points_bulk;
            }
          },
          /*boundary=*/
          [&](int cx, int cy) {
            const std::uint32_t* cell_begin = grid_.CellBegin(cx, cy);
            const std::uint32_t* cell_end = grid_.CellEnd(cx, cy);
            for (const std::uint32_t* it = cell_begin; it != cell_end; ++it) {
              if (selection.bitmap[*it] == 0) {
                continue;
              }
              ++costs.pip_tests;
              const geometry::Vec2 p{points_.x(*it), points_.y(*it)};
              if (part.Contains(p)) {
                acc.Add(value_of(*it));
              }
            }
          });
    }
  }
  costs.reduce_seconds = reduce_timer.ElapsedSeconds();

  costs.query_seconds = timer.ElapsedSeconds();
  PublishExecution(*this, "index", 1, costs, query.profile);
  return result;
}

}  // namespace urbane::core
