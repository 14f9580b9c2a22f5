#include "core/index_join.h"

#include <algorithm>

#include "core/observe.h"
#include "core/raster_join.h"
#include "util/timer.h"

namespace urbane::core {

geometry::BoundingBox PointIndexBounds(const data::PointTable& points,
                                       const data::RegionSet& regions) {
  // The region box first: a NaN in the rows' box then loses every min/max.
  const geometry::BoundingBox region_box = CanvasWorld(regions);
  geometry::BoundingBox bounds = region_box.Intersection(points.Bounds());
  if (bounds.IsEmpty()) {
    bounds = region_box;
  }
  return bounds.Expanded(1e-6 * std::max(1.0, bounds.Width()));
}

StatusOr<std::unique_ptr<IndexJoin>> IndexJoin::Create(
    const data::PointTable& points, const data::RegionSet& regions,
    const IndexJoinOptions& options) {
  URBANE_ASSIGN_OR_RETURN(std::shared_ptr<const index::GridIndex> grid,
                          BuildGrid(points, regions, options));
  return std::make_unique<IndexJoin>(
      points, regions, std::vector<IndexSource>{{&points, std::move(grid)}});
}

StatusOr<std::shared_ptr<const index::GridIndex>> IndexJoin::BuildGrid(
    const data::PointTable& points, const data::RegionSet& regions,
    const IndexJoinOptions& options) {
  URBANE_ASSIGN_OR_RETURN(
      index::GridIndex grid,
      index::GridIndex::BuildAuto(points.xs(), points.ys(), points.size(),
                                  PointIndexBounds(points, regions),
                                  options.target_points_per_cell));
  return std::make_shared<const index::GridIndex>(std::move(grid));
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

  URBANE_ASSIGN_OR_RETURN(const std::vector<internal::SourcePass> passes,
                          internal::FilterSources(sources_, query, costs));

  const std::size_t num_regions = regions_.size();
  PartialResult result;
  result.regions.resize(num_regions);

  WallTimer reduce_timer;
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    // A source nothing selected adds nothing (and has no bitmap to probe).
    if (passes[s].selection.ids.empty()) continue;
    const data::PointTable& table = *sources_[s].table;
    const index::GridIndex& grid = *sources_[s].grid;
    const std::uint8_t* bitmap = passes[s].selection.bitmap.data();
    const float* attr = passes[s].attr;
    auto value_of = [attr](std::uint32_t id) {
      return attr ? static_cast<double>(attr[id]) : 1.0;
    };
    for (std::size_t r = 0; r < num_regions; ++r) {
      Accumulator& acc = result.regions[r];
      for (const geometry::Polygon& part : regions_[r].geometry.parts()) {
        grid.ClassifyCells(
            part,
            /*interior=*/
            [&](int cx, int cy) {
              const std::uint32_t* cell_end = grid.CellEnd(cx, cy);
              for (const std::uint32_t* it = grid.CellBegin(cx, cy);
                   it != cell_end; ++it) {
                if (bitmap[*it] == 0) continue;
                acc.Add(value_of(*it));
                ++costs.points_bulk;
              }
            },
            /*boundary=*/
            [&](int cx, int cy) {
              const std::uint32_t* cell_end = grid.CellEnd(cx, cy);
              for (const std::uint32_t* it = grid.CellBegin(cx, cy);
                   it != cell_end; ++it) {
                if (bitmap[*it] == 0) continue;
                ++costs.pip_tests;
                const geometry::Vec2 p{table.x(*it), table.y(*it)};
                if (part.Contains(p)) {
                  acc.Add(value_of(*it));
                }
              }
            });
      }
    }
  }
  costs.reduce_seconds = reduce_timer.ElapsedSeconds();

  costs.query_seconds = timer.ElapsedSeconds();
  PublishExecution(*this, "index", 1, costs, query.profile);
  return result;
}

std::size_t IndexJoin::MemoryBytes() const {
  std::size_t total = 0;
  for (const IndexSource& source : sources_) {
    total += source.grid->MemoryBytes();
  }
  return total;
}

}  // namespace urbane::core
