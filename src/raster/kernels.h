#ifndef URBANE_RASTER_KERNELS_H_
#define URBANE_RASTER_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "geometry/bounding_box.h"
#include "raster/simd.h"
#include "raster/viewport.h"

// x86-64 builds ship SSE2 and AVX2 kernel tables next to the portable
// scalar one; every other architecture gets the scalar table at all levels.
#if defined(__x86_64__) || defined(_M_X64)
#define URBANE_RASTER_X86 1
#else
#define URBANE_RASTER_X86 0
#endif

namespace urbane::raster {

/// Sentinel pixel index for a point outside the canvas world box.
inline constexpr std::uint32_t kInvalidPixel = 0xFFFFFFFFu;

/// The exact arithmetic of Viewport::PixelForPoint, flattened into a POD so
/// kernels can vectorize it. Every kernel must reproduce the scalar mapping
/// bit-for-bit: closed-box containment in double, then
/// `static_cast<int>((w - min) / pixel)` (IEEE division, truncation), then
/// the max-edge fold — this is what keeps splats identical at every
/// SimdLevel.
struct SplatGeometry {
  double min_x, min_y, max_x, max_y;  // closed world box
  double pixel_w, pixel_h;
  std::int32_t width, height;

  static SplatGeometry From(const Viewport& vp) {
    const geometry::BoundingBox& world = vp.world();
    return {world.min_x, world.min_y, world.max_x,  world.max_y,
            vp.pixel_width(), vp.pixel_height(), vp.width(), vp.height()};
  }
};

/// Dispatch table of the data-parallel inner loops: the splat and sweep
/// passes, and the predicate kernels core::EvaluateFilter runs over row
/// chunks. All kernels are pure functions with lane-count-independent
/// semantics: the scalar table is the executable specification, and the
/// SSE2/AVX2 tables must match it bit-for-bit on every input (the simd test
/// suite enforces this).
struct RasterKernels {
  const char* name;

  /// Splat pass 1: out[i] = linear framebuffer index of point i, or
  /// kInvalidPixel when the point is outside the world box (NaNs are
  /// outside). Returns the number of valid indices.
  std::size_t (*compute_pixel_indices)(const SplatGeometry& geom,
                                       const float* xs, const float* ys,
                                       std::size_t count, std::uint32_t* out);

  /// Sweep pass 2, COUNT fast path: exact u64 sum of a u32 span.
  std::uint64_t (*sum_span_u32)(const std::uint32_t* v, std::size_t n);

  /// Sweep pass 2, sparse path: writes i (ascending) for every v[i] != 0;
  /// returns how many were written. `out` must hold at least n entries.
  std::size_t (*gather_nonzero_u32)(const std::uint32_t* v, std::size_t n,
                                    std::uint32_t* out);

  /// Filter predicates. Each ANDs one conjunct into a row mask:
  /// mask[i] &= (row i passes ? 1 : 0) for i in [0, n), so 0/1 mask bytes
  /// stay 0/1. `mask` may alias nothing else.
  ///
  /// Half-open time range: begin <= t[i] < end (TimeRange::Contains);
  /// begin >= end selects nothing.
  void (*and_time_range)(const std::int64_t* t, std::size_t n,
                         std::int64_t begin, std::int64_t end,
                         std::uint8_t* mask);
  /// Closed float range with ordered compares: v[i] >= lo && v[i] <= hi,
  /// so a NaN value fails every range (the rule the zone maps prune by).
  void (*and_float_range)(const float* v, std::size_t n, float lo, float hi,
                          std::uint8_t* mask);
  /// Closed box, bit for bit BoundingBox::Contains: each float is widened
  /// to double and compared against the double bounds; NaN fails.
  void (*and_window)(const geometry::BoundingBox& box, const float* xs,
                     const float* ys, std::size_t n, std::uint8_t* mask);
};

/// Kernel table for a level (levels absent from this build resolve to the
/// nearest level below that is present).
const RasterKernels& KernelsForLevel(SimdLevel level);

/// KernelsForLevel(ActiveSimdLevel()).
const RasterKernels& ActiveKernels();

extern const RasterKernels kScalarRasterKernels;
#if URBANE_RASTER_X86
extern const RasterKernels kSse2RasterKernels;
extern const RasterKernels kAvx2RasterKernels;
#endif

}  // namespace urbane::raster

#endif  // URBANE_RASTER_KERNELS_H_
