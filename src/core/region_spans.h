#ifndef URBANE_CORE_REGION_SPANS_H_
#define URBANE_CORE_REGION_SPANS_H_

// Cached sweep geometry for the raster joins' pass 2.
//
// Scan-converting every region on every query made pass 2 pay for edge
// walking, crossing sorts and boundary dedup over and over, even though the
// covered pixels depend only on (region set, canvas). This cache — part of
// a raster join's region-side state (RasterRegionState), shared by every
// point source the join composes — rasterizes each region once into flat
// span and boundary-pixel arrays; the per-query sweep then degenerates
// into a linear walk over those arrays, which is the memory-bound loop the
// SIMD span kernels (raster/kernels.h) accelerate.
//
// Emission order is preserved exactly — spans are part-major and row-major
// within a part (the order ScanlineFillPolygon emits), boundary pixels are
// in RasterizePolygonBoundary's first-occurrence order — so accumulating
// through the cache is bit-identical to the uncached sweep, float sums
// included.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/region.h"
#include "raster/rasterizer.h"
#include "raster/viewport.h"

namespace urbane::core::internal {

/// Pre-rasterized geometry of one region on one canvas.
struct RegionSpanCache {
  /// Covered-pixel runs, concatenated part-major. In accurate mode the
  /// part's boundary pixels are already cut out of its spans, so the sweep
  /// needs no per-pixel stamp checks.
  std::vector<raster::PixelSpan> spans;
  /// Index of the first span of each part; size = parts + 1.
  std::vector<std::uint32_t> span_part_offsets;
  /// Boundary pixels (linear canvas indices) in emission order. Bounded
  /// mode dedups across the whole region; accurate mode per part (a pixel
  /// on two parts' boundaries is refined against each part separately).
  std::vector<std::uint32_t> boundary;
  /// Index of the first boundary pixel of each part; size = parts + 1.
  std::vector<std::uint32_t> boundary_part_offsets;
  /// Interior pixels before any boundary cut — the pixels_touched a sweep
  /// of this region reports, matching the uncached loop.
  std::uint64_t pixels = 0;
  /// Distinct 64×64 canvas tiles the interior spans touch.
  std::uint32_t tiles = 0;

  std::size_t MemoryBytes() const;
};

/// Which executor the cache serves; controls boundary dedup scope and
/// whether boundary pixels are cut from the interior spans.
enum class SweepMode {
  kBounded,   // spans keep boundary pixels; boundary deduped per region
  kAccurate,  // spans exclude the part's boundary; boundary deduped per part
};

/// Query-independent sweep geometry for a whole region set.
struct SweepGeometry {
  std::vector<RegionSpanCache> regions;
  /// Accurate mode only: the Z-order keys (raster::MortonPixelKey) of the
  /// distinct boundary pixels, ascending, and for every boundary entry —
  /// region-major, each region's `boundary` in order — the index of its
  /// pixel's key. A point source locates its boundary runs by one merge of
  /// its Morton runs against `boundary_keys` and stores them per key, so
  /// the sweep finds entry b's points at `boundary_slots[b]`.
  std::vector<std::uint32_t> boundary_keys;
  std::vector<std::uint32_t> boundary_slots;

  std::size_t MemoryBytes() const;
};

/// Rasterizes every region of `regions` once. `with_boundary` skips the
/// boundary lists when the executor never reads them (bounded join with
/// error bounds off). Accurate mode needs a canvas at most 65535 pixels a
/// side, the range of the Z-order key.
SweepGeometry BuildSweepGeometry(const raster::Viewport& vp,
                                 const data::RegionSet& regions,
                                 SweepMode mode, bool with_boundary);

}  // namespace urbane::core::internal

#endif  // URBANE_CORE_REGION_SPANS_H_
