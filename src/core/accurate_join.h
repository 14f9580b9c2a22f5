#ifndef URBANE_CORE_ACCURATE_JOIN_H_
#define URBANE_CORE_ACCURATE_JOIN_H_

#include <memory>

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
/// the Morton splat order, located once at Create. Interior pixels are
/// provably uniform — no edge touches their cell — so taking their blended
/// values wholesale is exact, not approximate.
class AccurateRasterJoin : public SpatialAggregationExecutor {
 public:
  /// InvalidArgument for a canvas wider or taller than 65535 pixels, where
  /// the Morton order (raster::MortonSplatOrder) is disabled.
  static StatusOr<std::unique_ptr<AccurateRasterJoin>> Create(
      const data::PointTable& points, const data::RegionSet& regions,
      const RasterJoinOptions& options = RasterJoinOptions());

  StatusOr<PartialResult> ExecutePartial(
      const AggregationQuery& query) const override;
  std::string name() const override { return "accurate"; }
  bool exact() const override { return true; }

  const raster::Viewport& canvas() const { return viewport_; }
  std::size_t MemoryBytes() const;

 private:
  AccurateRasterJoin(const data::PointTable& points,
                     const data::RegionSet& regions,
                     const RasterJoinOptions& options,
                     raster::Viewport viewport)
      : points_(points),
        regions_(regions),
        options_(options),
        viewport_(viewport) {}

  /// A half-open range [begin, end) of positions in morton_.
  struct MortonRun {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  /// Fills boundary_runs_ from morton_ and sweep_.
  void LocateBoundaryRuns();

  const data::PointTable& points_;
  const data::RegionSet& regions_;
  RasterJoinOptions options_;
  raster::Viewport viewport_;
  // Query-independent caches (see BoundedRasterJoin): Z-ordered splat
  // schedule and per-region sweep spans. The accurate cache additionally
  // pre-cuts each part's boundary pixels out of its interior spans, so the
  // sweep loop runs without per-pixel stamp checks.
  raster::MortonSplatOrder morton_;
  internal::SweepGeometry sweep_;
  // The points of every boundary pixel of sweep_, region-major and in each
  // region's boundary order: the pixel's run of morton_ (empty when no
  // point falls in it).
  std::vector<MortonRun> boundary_runs_;
  // Render targets leased per ExecutePartial call (see BoundedRasterJoin).
  mutable internal::TargetPool targets_;
};

}  // namespace urbane::core

#endif  // URBANE_CORE_ACCURATE_JOIN_H_
