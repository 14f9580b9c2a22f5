#ifndef URBANE_CORE_TEMPORAL_CANVAS_H_
#define URBANE_CORE_TEMPORAL_CANVAS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/query.h"
#include "core/raster_join.h"
#include "raster/buffer.h"
#include "raster/viewport.h"

namespace urbane::core {

/// Options of the time-binned canvas index.
struct TemporalCanvasOptions {
  /// Canvas resolution (same semantics as RasterJoinOptions::resolution).
  /// Memory is resolution^2 * (time_bins + 1) * 4 bytes, so the default is
  /// deliberately coarser than the per-query canvas.
  int resolution = 256;
  /// Number of equal-width time bins over the data's time span.
  int time_bins = 64;
};

/// Time-brushing accelerator: a stack of per-time-bin COUNT canvases stored
/// as prefix sums along time, so the canvas of ANY bin-aligned time window
/// [b0, b1) is one subtraction — independent of the point count. Moving
/// Urbane's time slider then costs O(canvas + region sweep) per frame
/// instead of O(points).
///
/// The answer is approximate on two axes, both explicit:
///  * spatially, like BoundedRasterJoin (pixel-ownership, ε = pixel
///    diagonal, on the canvas over the regions' box that CanvasWorld
///    derives, so a point outside that box is binned nowhere);
///  * temporally, the query window is snapped OUTWARD to bin edges; the
///    report includes the snapped window so callers can display it (Urbane
///    snaps its slider to the same bins).
///
/// Supports COUNT (the brushing workload); other aggregates fall back to
/// the regular executors. The index is built once over a fixed table and
/// never updated: rows appended later need a rebuild.
class TemporalCanvasIndex {
 public:
  static StatusOr<std::unique_ptr<TemporalCanvasIndex>> Build(
      const data::PointTable& points, const data::RegionSet& regions,
      const TemporalCanvasOptions& options = TemporalCanvasOptions());

  /// COUNT per region for points with t in the window snapped outward to
  /// bin edges. `snapped_begin/end` (optional) receive the effective
  /// window.
  StatusOr<QueryResult> QueryTimeWindow(std::int64_t t_begin,
                                        std::int64_t t_end,
                                        std::int64_t* snapped_begin = nullptr,
                                        std::int64_t* snapped_end = nullptr);

  const raster::Viewport& canvas() const { return viewport_; }
  int time_bins() const { return time_bins_; }
  std::int64_t min_time() const { return min_time_; }
  std::int64_t max_time() const { return max_time_; }
  std::size_t MemoryBytes() const;
  double build_seconds() const { return build_seconds_; }

  /// Bin index owning time t (clamped).
  int BinForTime(std::int64_t t) const;
  /// Start time of bin b (b may be time_bins for the exclusive end).
  std::int64_t BinStart(int b) const;

 private:
  TemporalCanvasIndex(const data::PointTable& points,
                      const data::RegionSet& regions,
                      raster::Viewport viewport, int time_bins)
      : points_(points),
        regions_(regions),
        viewport_(viewport),
        time_bins_(time_bins) {}

  /// Prefix canvas p such that prefix_[p] = counts of all bins < p.
  const std::uint32_t* PrefixCanvas(int p) const {
    return prefix_.data() +
           static_cast<std::size_t>(p) * pixels_per_canvas_;
  }

  const data::PointTable& points_;
  const data::RegionSet& regions_;
  raster::Viewport viewport_;
  int time_bins_;
  std::int64_t min_time_ = 0;
  std::int64_t max_time_ = 0;
  std::size_t pixels_per_canvas_ = 0;
  // (time_bins + 1) canvases, prefix-summed along time.
  std::vector<std::uint32_t> prefix_;
  double build_seconds_ = 0.0;
};

}  // namespace urbane::core

#endif  // URBANE_CORE_TEMPORAL_CANVAS_H_
