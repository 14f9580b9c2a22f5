#ifndef URBANE_CORE_ACCURATE_JOIN_H_
#define URBANE_CORE_ACCURATE_JOIN_H_

#include <memory>
#include <utility>

#include "core/query.h"
#include "core/raster_join.h"
#include "raster/viewport.h"

namespace urbane::core {

/// Accurate (hybrid) Raster Join — the paper's exact variant.
///
/// Identical to BoundedRasterJoin except at region boundaries: pixels the
/// boundary passes through (found by conservative edge rasterization) are
/// excluded from the raster reduction and their points are resolved with
/// exact point-in-polygon tests instead (the software analogue of the GPU
/// fragment-list pass). A boundary pixel's points are one contiguous run of
/// each point source's Morton splat order, located once per source
/// (RasterPointSource). The refine skips a boundary pixel the query's splat
/// left empty — a run holds only its own pixel's points — and otherwise
/// walks the pixel's runs in source order, so its points are tested in
/// concatenated-row order. Interior pixels are provably uniform — no edge
/// touches their cell — so taking their blended values wholesale is exact,
/// not approximate.
///
/// Like the bounded join, the executor composes an ordered list of point
/// sources on one canvas; Create is the one-source case.
class AccurateRasterJoin : public SpatialAggregationExecutor {
 public:
  /// The one-source join over `points`. InvalidArgument for a canvas wider
  /// or taller than 65535 pixels, where the Z-order key runs out.
  static StatusOr<std::unique_ptr<AccurateRasterJoin>> Create(
      const data::PointTable& points, const data::RegionSet& regions,
      const RasterJoinOptions& options = RasterJoinOptions());

  /// The region-side state this join sweeps on `canvas` (same limit).
  static StatusOr<std::shared_ptr<const RasterRegionState>> BuildRegionState(
      const data::RegionSet& regions, const raster::Viewport& canvas);

  /// The join over `sources`, which were built on `region` (an
  /// accurate-mode region state). Queries are validated against `points`
  /// — any table with the sources' schema — which must outlive the
  /// executor.
  AccurateRasterJoin(const data::PointTable& points,
                     const data::RegionSet& regions,
                     std::shared_ptr<const RasterRegionState> region,
                     RasterSources sources)
      : points_(points),
        regions_(regions),
        region_(std::move(region)),
        sources_(std::move(sources)) {}

  StatusOr<PartialResult> ExecutePartial(
      const AggregationQuery& query) const override;
  std::string name() const override { return "accurate"; }
  bool exact() const override { return true; }

  const raster::Viewport& canvas() const { return region_->viewport; }
  std::size_t MemoryBytes() const;

 private:
  const data::PointTable& points_;
  const data::RegionSet& regions_;
  // Query-independent and shared (see BoundedRasterJoin). The accurate
  // region state additionally pre-cuts each part's boundary pixels out of
  // its interior spans, so the sweep loop runs without per-pixel stamp
  // checks, and each source holds its boundary pixels' runs.
  std::shared_ptr<const RasterRegionState> region_;
  RasterSources sources_;
};

}  // namespace urbane::core

#endif  // URBANE_CORE_ACCURATE_JOIN_H_
