#ifndef URBANE_CORE_RASTER_JOIN_H_
#define URBANE_CORE_RASTER_JOIN_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/query.h"
#include "core/raster_targets.h"
#include "core/region_spans.h"
#include "raster/buffer.h"
#include "raster/morton.h"
#include "raster/viewport.h"

namespace urbane::core {

/// Shared configuration of the raster-join executors.
struct RasterJoinOptions {
  /// Canvas resolution along the world's longer side; the shorter side is
  /// scaled to keep square pixels. Higher resolution -> smaller error bound
  /// (bounded variant) / fewer exact boundary tests (accurate variant) but
  /// more pixels to sweep. 1024 reproduces the paper's interactive setting.
  int resolution = 1024;
  /// Canvas world window. Default: union of point and region bounds — the
  /// correctness of both variants requires the canvas to cover every point
  /// and every region.
  std::optional<geometry::BoundingBox> world;
  /// Bounded variant: also compute per-region error bounds (costs one
  /// boundary rasterization per region).
  bool compute_error_bounds = true;
};

/// Canvas construction shared by the executors and the resolution planner.
raster::Viewport MakeCanvas(const geometry::BoundingBox& world,
                            int resolution);

/// The finishing step of default canvas-world derivation: empty worlds
/// fall back to the unit box and the edges are padded so points sitting
/// exactly on the max edge stay inside after float32 -> double round
/// trips. Exposed so a live data set (ingest::LiveEngine), which pins an
/// explicit world from a union of component bounds, produces a canvas
/// BIT-identical to the one a stop-the-world engine would derive from the
/// concatenated rows.
geometry::BoundingBox PadCanvasWorld(geometry::BoundingBox world);

/// Smallest resolution whose pixel diagonal is <= `epsilon_world` (meters in
/// the Mercator plane), i.e. the cheapest canvas honoring the error bound.
int ResolutionForEpsilon(const geometry::BoundingBox& world,
                         double epsilon_world);

/// Validates `options` against the data and builds the canvas — the checks
/// both raster executors share (the world window must cover every point and
/// region).
StatusOr<raster::Viewport> MakeValidatedCanvas(
    const data::PointTable& points, const data::RegionSet& regions,
    const RasterJoinOptions& options);

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
/// boundary pixels.
class BoundedRasterJoin : public SpatialAggregationExecutor {
 public:
  static StatusOr<std::unique_ptr<BoundedRasterJoin>> Create(
      const data::PointTable& points, const data::RegionSet& regions,
      const RasterJoinOptions& options = RasterJoinOptions());

  StatusOr<PartialResult> ExecutePartial(
      const AggregationQuery& query) const override;

  std::string name() const override { return "raster"; }
  bool exact() const override { return false; }

  const raster::Viewport& canvas() const { return viewport_; }
  /// Geometric error bound of this canvas (world units / meters).
  double EpsilonWorld() const { return viewport_.EpsilonWorld(); }
  std::size_t MemoryBytes() const;

 private:
  BoundedRasterJoin(const data::PointTable& points,
                    const data::RegionSet& regions,
                    const RasterJoinOptions& options,
                    raster::Viewport viewport)
      : points_(points),
        regions_(regions),
        options_(options),
        viewport_(viewport) {}

  const data::PointTable& points_;
  const data::RegionSet& regions_;
  RasterJoinOptions options_;
  raster::Viewport viewport_;
  // Query-independent caches built once at Create: the points in Z-order
  // (dense selections splat tile-coherently) and each region's covered
  // spans + boundary pixels (the sweep becomes a linear walk the SIMD span
  // kernels accelerate). Executors are rebuilt on dataset epoch bumps, so
  // neither can go stale.
  raster::MortonSplatOrder morton_;
  internal::SweepGeometry sweep_;
  // Render targets leased per ExecutePartial call: the pool is the
  // executor's only mutable member, and it is internally locked.
  mutable internal::TargetPool targets_;
};

}  // namespace urbane::core

#endif  // URBANE_CORE_RASTER_JOIN_H_
