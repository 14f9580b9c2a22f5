#ifndef URBANE_CORE_INDEX_JOIN_H_
#define URBANE_CORE_INDEX_JOIN_H_

#include <memory>

#include "core/query.h"
#include "index/grid_index.h"

namespace urbane::core {

/// Configuration of the index-based baseline.
struct IndexJoinOptions {
  /// Target points per grid cell (index granularity). The F4 `--grid-sweep`
  /// ablation varies this.
  double target_points_per_cell = 64.0;
};

/// Exact index-based join baseline: a uniform grid is built over the points
/// once. Each query evaluates its filter once (EvaluateFilter); each region
/// probe then classifies overlapping cells as interior (take every point
/// whose selection bit is set) or boundary (selection bit + exact
/// point-in-polygon).
///
/// This mirrors the "index-based join" the Raster Join paper compares
/// against: preprocessing buys per-query speed, but boundary cells still
/// need exact geometry tests, and complex polygons touch many cells.
class IndexJoin : public SpatialAggregationExecutor {
 public:
  static StatusOr<std::unique_ptr<IndexJoin>> Create(
      const data::PointTable& points, const data::RegionSet& regions,
      const IndexJoinOptions& options = IndexJoinOptions());

  StatusOr<PartialResult> ExecutePartial(
      const AggregationQuery& query) const override;
  std::string name() const override { return "index"; }
  bool exact() const override { return true; }

  const index::GridIndex& grid() const { return grid_; }
  std::size_t MemoryBytes() const { return grid_.MemoryBytes(); }

 private:
  IndexJoin(const data::PointTable& points, const data::RegionSet& regions,
            index::GridIndex grid, const IndexJoinOptions& options)
      : points_(points),
        regions_(regions),
        grid_(std::move(grid)),
        options_(options) {}

  const data::PointTable& points_;
  const data::RegionSet& regions_;
  index::GridIndex grid_;
  IndexJoinOptions options_;
};

}  // namespace urbane::core

#endif  // URBANE_CORE_INDEX_JOIN_H_
