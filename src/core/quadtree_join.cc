#include "core/quadtree_join.h"

#include <array>
#include <vector>

#include "core/index_join.h"
#include "core/observe.h"
#include "core/raster_join.h"
#include "util/timer.h"

namespace urbane::core {

StatusOr<std::unique_ptr<QuadtreeJoin>> QuadtreeJoin::Create(
    const data::PointTable& points, const data::RegionSet& regions,
    const QuadtreeJoinOptions& options) {
  index::QuadtreeOptions tree_options;
  tree_options.max_points_per_leaf = options.max_points_per_leaf;
  tree_options.max_depth = options.max_depth;
  URBANE_ASSIGN_OR_RETURN(
      index::Quadtree tree,
      index::Quadtree::Build(points.xs(), points.ys(), points.size(),
                             PointIndexBounds(points, regions),
                             tree_options));
  return std::unique_ptr<QuadtreeJoin>(
      new QuadtreeJoin(points, regions, std::move(tree)));
}

StatusOr<PartialResult> QuadtreeJoin::ExecutePartial(
    const AggregationQuery& query) const {
  URBANE_RETURN_IF_ERROR(query.Validate());
  if (query.points != &points_ || query.regions != &regions_) {
    return Status::FailedPrecondition(
        "QuadtreeJoin was created for a different table/region set");
  }
  obs::ProfilePassCosts costs;
  WallTimer timer;

  const std::array<const data::PointTable*, 1> sources = {&points_};
  URBANE_ASSIGN_OR_RETURN(const std::vector<internal::SourcePass> passes,
                          internal::FilterSources(sources, query, costs));
  const FilterSelection& selection = passes.front().selection;
  const float* attr = passes.front().attr;
  auto value_of = [&](std::uint32_t id) {
    return attr ? static_cast<double>(attr[id]) : 1.0;
  };

  PartialResult result;
  result.regions.resize(regions_.size());
  WallTimer reduce_timer;
  // An empty selection adds nothing, and one with no candidate row has no
  // bitmap to probe.
  const std::size_t num_regions = selection.ids.empty() ? 0 : regions_.size();
  for (std::size_t r = 0; r < num_regions; ++r) {
    Accumulator& acc = result.regions[r];
    for (const geometry::Polygon& part : regions_[r].geometry.parts()) {
      tree_.Query(
          part,
          /*take_all=*/
          [&](const std::uint32_t* ids, std::size_t n) {
            for (std::size_t k = 0; k < n; ++k) {
              if (selection.bitmap[ids[k]] == 0) {
                continue;
              }
              acc.Add(value_of(ids[k]));
              ++costs.points_bulk;
            }
          },
          /*test_each=*/
          [&](const std::uint32_t* ids, std::size_t n) {
            for (std::size_t k = 0; k < n; ++k) {
              if (selection.bitmap[ids[k]] == 0) {
                continue;
              }
              ++costs.pip_tests;
              const geometry::Vec2 p{points_.x(ids[k]), points_.y(ids[k])};
              if (part.Contains(p)) {
                acc.Add(value_of(ids[k]));
              }
            }
          });
    }
  }
  costs.reduce_seconds = reduce_timer.ElapsedSeconds();
  costs.query_seconds = timer.ElapsedSeconds();
  PublishExecution(*this, "quadtree", 1, costs, query.profile);
  return result;
}

}  // namespace urbane::core
