#ifndef URBANE_CORE_RASTER_JOIN_H_
#define URBANE_CORE_RASTER_JOIN_H_

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/filter.h"
#include "core/query.h"
#include "core/raster_targets.h"
#include "core/region_spans.h"
#include "core/row_range.h"
#include "obs/profile.h"
#include "raster/buffer.h"
#include "raster/morton.h"
#include "raster/viewport.h"
#include "util/timer.h"

namespace urbane::core {

/// Shared configuration of the raster-join executors.
struct RasterJoinOptions {
  /// Canvas resolution along the world's longer side; the shorter side is
  /// scaled to keep square pixels. Higher resolution -> smaller error bound
  /// (bounded variant) / fewer exact boundary tests (accurate variant) but
  /// more pixels to sweep. 1024 reproduces the paper's interactive setting.
  int resolution = 1024;
  /// Bounded variant: also compute per-region error bounds (costs one
  /// boundary rasterization per region).
  bool compute_error_bounds = true;
};

/// The world every raster canvas over `regions` covers: the regions'
/// bounding box, padded by a hair on every side so no region edge lies on
/// the canvas edge (the unit box when there are no regions). A point counts
/// only inside a region (`P.loc INSIDE R.geometry`), so a point outside
/// this box counts nowhere, and the splat maps it — NaN and infinite
/// coordinates included — to no pixel. The raster joins, the facade's
/// planner and the temporal canvas index all derive their world here, so
/// region-side state depends only on (region set, resolution, mode), never
/// on the points.
geometry::BoundingBox CanvasWorld(const data::RegionSet& regions);

/// Canvas construction shared by the executors and the resolution planner.
raster::Viewport MakeCanvas(const geometry::BoundingBox& world,
                            int resolution);

/// Smallest resolution whose pixel diagonal is <= `epsilon_world` (meters in
/// the Mercator plane), i.e. the cheapest canvas honoring the error bound.
int ResolutionForEpsilon(const geometry::BoundingBox& world,
                         double epsilon_world);

/// The canvas of `regions` at `resolution`: MakeCanvas over
/// CanvasWorld(regions). InvalidArgument for a resolution below 1.
StatusOr<raster::Viewport> MakeValidatedCanvas(const data::RegionSet& regions,
                                               int resolution);

/// The region-side state of a raster join: everything that depends only on
/// the region set and the canvas. Built once per (region set, canvas, sweep
/// mode) and shared by every point source the join composes — the canvas,
/// each region's cached sweep spans and boundary pixels (the accurate mode
/// also sorts them by Z-order key) and the pool each query leases its one
/// render-target set from.
struct RasterRegionState {
  raster::Viewport viewport;
  internal::SweepGeometry sweep;
  mutable internal::TargetPool targets;

  explicit RasterRegionState(const raster::Viewport& canvas)
      : viewport(canvas) {}

  /// Rasterizes `regions` on `canvas` in `mode`; `with_boundary` as in
  /// internal::BuildSweepGeometry. InvalidArgument for an accurate canvas
  /// wider or taller than 65535 pixels, beyond the Z-order key's range.
  static StatusOr<std::shared_ptr<const RasterRegionState>> Build(
      const data::RegionSet& regions, const raster::Viewport& canvas,
      internal::SweepMode mode, bool with_boundary);

  std::size_t MemoryBytes() const { return sweep.MemoryBytes(); }
};

/// A half-open range [begin, end) of positions in a Morton splat order:
/// the points of one pixel, in row order.
struct MortonRun {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// The point-side state of one point source on one region state's canvas,
/// built once per (table, region state): the table's rows in Z-order (dense
/// selections splat tile-coherently) and, in accurate mode, the run of that
/// order each boundary pixel holds — indexed like the region state's
/// `sweep.boundary_keys` (which only accurate mode sorts), empty where the
/// source has no point. The runs come from one merge of the source's pixel
/// runs against the sorted keys, so a source costs O(rows) plus a galloping
/// search per run, not a search per boundary pixel.
struct RasterPointSource {
  const data::PointTable* table = nullptr;
  raster::MortonSplatOrder morton;
  std::vector<MortonRun> boundary_runs;

  /// Rows off the region state's canvas (outside every region) take no
  /// pixel and sort last. `points` must outlive the source.
  static std::shared_ptr<const RasterPointSource> Build(
      const RasterRegionState& region, const data::PointTable& points);

  std::size_t MemoryBytes() const {
    return morton.MemoryBytes() + boundary_runs.capacity() * sizeof(MortonRun);
  }
};

/// The point sources of one raster join, in row order: their rows
/// concatenated in this order form the join's row space, which a query's
/// `candidate_ranges` address.
using RasterSources = std::vector<std::shared_ptr<const RasterPointSource>>;

/// The table a point source reads, for internal::FilterSources: a plain
/// table (the scan and quadtree joins) or a raster source's.
inline const data::PointTable& SourceTable(const data::PointTable* table) {
  return *table;
}
inline const data::PointTable& SourceTable(
    const std::shared_ptr<const RasterPointSource>& source) {
  return *source->table;
}

namespace internal {

/// One source's share of a query: its filter selection (source-local row
/// ids; empty, bitmap included, for a source with no candidate row) and
/// the aggregate's attribute column (null for COUNT).
struct SourcePass {
  FilterSelection selection;
  const float* attr = nullptr;
};

/// The filter half of every executor over an ordered list of point
/// sources, each naming its table through a SourceTable overload; their
/// rows concatenated in this order form the row space
/// `query.candidate_ranges` addresses. Filters each source over its slice
/// of those ranges, skipping a source with no candidate row, and looks up
/// the aggregate's attribute column. Adds the filter time and
/// `points_scanned` to `costs`, then polls the query's deadline once.
template <typename Sources>
StatusOr<std::vector<SourcePass>> FilterSources(const Sources& sources,
                                                const AggregationQuery& query,
                                                obs::ProfilePassCosts& costs) {
  WallTimer timer;
  std::vector<SourcePass> passes(sources.size());
  std::uint64_t first = 0;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const data::PointTable& table = SourceTable(sources[s]);
    const std::uint64_t end = first + table.size();
    std::optional<RowRangeSet> slice;
    if (query.candidate_ranges != nullptr) {
      slice = SliceRowRanges(*query.candidate_ranges, first, end);
    }
    first = end;
    if (slice.has_value() && slice->empty()) continue;
    URBANE_ASSIGN_OR_RETURN(
        passes[s].selection,
        EvaluateFilter(query.filter, table, slice ? &*slice : nullptr));
    if (query.aggregate.NeedsAttribute()) {
      passes[s].attr = table.AttributeByName(query.aggregate.attribute);
    }
    costs.points_scanned += passes[s].selection.ids.size();
  }
  costs.filter_seconds += timer.ElapsedSeconds();
  URBANE_RETURN_IF_ERROR(query.CheckControl());
  return passes;
}

/// Pass 1 of both raster joins: FilterSources, then splats the selected
/// rows into `targets` — prepared for the query's aggregate — source after
/// source, so each pixel accumulates its points in concatenated-row order.
/// Adds the splat time to `costs` and polls the query's deadline again.
StatusOr<std::vector<SourcePass>> FilterAndSplat(
    const RasterRegionState& region, const RasterSources& sources,
    const AggregationQuery& query, bool need_abs_sum,
    AggregateTargets& targets, obs::ProfilePassCosts& costs);

}  // namespace internal

/// Bounded Raster Join — the paper's approximate, fully raster-based
/// executor. Drawing operations on a canvas replace the spatial join:
///
///  pass 1  splat the filtered points into per-pixel aggregate targets
///          (additive blending — GL_ONE/GL_ONE — for COUNT/SUM, min/max
///          blending for MIN/MAX);
///  pass 2  "draw" each region over the canvas and reduce the covered
///          pixels into the region's accumulator.
///
/// A pixel straddling a region boundary is attributed by its center, so a
/// point can only be misassigned if it lies within one pixel diagonal ε of
/// the boundary; per-region error bounds are computed from the points in
/// boundary pixels. The canvas covers the regions alone (CanvasWorld): a
/// point off it lies in no region and lands in no pixel.
///
/// The executor composes an ordered list of point sources on one canvas:
/// every source splats into the query's one leased target set, and the
/// regions sweep that canvas once. A one-table join (Create) is the
/// one-source case; a live data set composes its base, runs and hot rows
/// (SpatialAggregation::SetComponents), which answers bit for bit like one
/// table holding the concatenated rows.
class BoundedRasterJoin : public SpatialAggregationExecutor {
 public:
  /// The one-source join over `points`.
  static StatusOr<std::unique_ptr<BoundedRasterJoin>> Create(
      const data::PointTable& points, const data::RegionSet& regions,
      const RasterJoinOptions& options = RasterJoinOptions());

  /// The region-side state this join sweeps on `canvas`.
  static StatusOr<std::shared_ptr<const RasterRegionState>> BuildRegionState(
      const data::RegionSet& regions, const raster::Viewport& canvas,
      const RasterJoinOptions& options);

  /// The join over `sources`, which were built on `region` (a bounded-mode
  /// region state). Queries are validated against `points` — any table
  /// with the sources' schema — which must outlive the executor.
  BoundedRasterJoin(const data::PointTable& points,
                    const data::RegionSet& regions,
                    const RasterJoinOptions& options,
                    std::shared_ptr<const RasterRegionState> region,
                    RasterSources sources)
      : points_(points),
        regions_(regions),
        options_(options),
        region_(std::move(region)),
        sources_(std::move(sources)) {}

  StatusOr<PartialResult> ExecutePartial(
      const AggregationQuery& query) const override;

  std::string name() const override { return "raster"; }
  bool exact() const override { return false; }

  const raster::Viewport& canvas() const { return region_->viewport; }
  /// Geometric error bound of this canvas (world units / meters).
  double EpsilonWorld() const { return canvas().EpsilonWorld(); }
  std::size_t MemoryBytes() const;

 private:
  const data::PointTable& points_;
  const data::RegionSet& regions_;
  RasterJoinOptions options_;
  // Query-independent and shared: the canvas and its region spans (the
  // sweep becomes a linear walk the SIMD span kernels accelerate), and per
  // source its Z-order. The render-target pool inside the region state is
  // the only mutable part, and it is internally locked.
  std::shared_ptr<const RasterRegionState> region_;
  RasterSources sources_;
};

}  // namespace urbane::core

#endif  // URBANE_CORE_RASTER_JOIN_H_
