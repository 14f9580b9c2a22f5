#ifndef URBANE_CORE_INDEX_JOIN_H_
#define URBANE_CORE_INDEX_JOIN_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/query.h"
#include "index/grid_index.h"

namespace urbane::core {

/// Configuration of the index-based baseline.
struct IndexJoinOptions {
  /// Target points per grid cell (index granularity). The F4 `--grid-sweep`
  /// ablation varies this.
  double target_points_per_cell = 64.0;
};

/// The world the index and quadtree joins index `points` over: the rows'
/// box clipped to CanvasWorld(regions) (the region box when no row lies
/// inside it), padded slightly so max-edge points land in the last cell. A
/// row outside the region box lies in no region, so it neither widens nor
/// enters the index, however far out or non-finite it is.
geometry::BoundingBox PointIndexBounds(const data::PointTable& points,
                                       const data::RegionSet& regions);

/// One point source of an index join: a table and the grid built over its
/// rows (IndexJoin::BuildGrid).
struct IndexSource {
  const data::PointTable* table = nullptr;
  std::shared_ptr<const index::GridIndex> grid;
};

/// The table an index source reads, for internal::FilterSources.
inline const data::PointTable& SourceTable(const IndexSource& source) {
  return *source.table;
}

/// Exact index-based join baseline: a uniform grid is built over the points
/// once. Each query evaluates its filter once (EvaluateFilter); each region
/// probe then classifies overlapping cells as interior (take every point
/// whose selection bit is set) or boundary (selection bit + exact
/// point-in-polygon).
///
/// This mirrors the "index-based join" the Raster Join paper compares
/// against: preprocessing buys per-query speed, but boundary cells still
/// need exact geometry tests, and complex polygons touch many cells.
///
/// Like the raster joins, it composes an ordered list of point sources,
/// each with its own grid, adding source after source into one accumulator
/// per region. Create is the one-source case.
class IndexJoin : public SpatialAggregationExecutor {
 public:
  /// The one-source join over `points`.
  static StatusOr<std::unique_ptr<IndexJoin>> Create(
      const data::PointTable& points, const data::RegionSet& regions,
      const IndexJoinOptions& options = IndexJoinOptions());

  /// The point-side state of one source: a grid over `points`' rows inside
  /// PointIndexBounds(points, regions).
  static StatusOr<std::shared_ptr<const index::GridIndex>> BuildGrid(
      const data::PointTable& points, const data::RegionSet& regions,
      const IndexJoinOptions& options);

  /// The join over `sources`, in row order. Queries are validated against
  /// `points` — any table with the sources' schema. Every table must
  /// outlive the executor.
  IndexJoin(const data::PointTable& points, const data::RegionSet& regions,
            std::vector<IndexSource> sources)
      : points_(points), regions_(regions), sources_(std::move(sources)) {}

  StatusOr<PartialResult> ExecutePartial(
      const AggregationQuery& query) const override;
  std::string name() const override { return "index"; }
  bool exact() const override { return true; }

  /// The first source's grid: the one grid of a join Create built.
  const index::GridIndex& grid() const { return *sources_.front().grid; }
  std::size_t MemoryBytes() const;

 private:
  const data::PointTable& points_;
  const data::RegionSet& regions_;
  std::vector<IndexSource> sources_;
};

}  // namespace urbane::core

#endif  // URBANE_CORE_INDEX_JOIN_H_
