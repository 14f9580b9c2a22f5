#ifndef URBANE_RASTER_KERNELS_INL_H_
#define URBANE_RASTER_KERNELS_INL_H_

// Shared scalar bodies for the kernel tables: kernels_scalar.cc wraps these
// directly, and the SSE2/AVX2 translation units use them for loop tails so
// the remainder lanes are — by construction — the same code at every level.

#include <cstddef>
#include <cstdint>

#include "raster/kernels.h"

namespace urbane::raster::internal {

/// Pixel index of one point, or kInvalidPixel. Mirrors
/// Viewport::PixelForPoint exactly (closed box, truncating division,
/// max-edge fold); the comparisons reject NaN.
inline std::uint32_t ScalarPixelIndex(const SplatGeometry& g, float xf,
                                      float yf) {
  const double x = xf;
  const double y = yf;
  if (!(x >= g.min_x && x <= g.max_x && y >= g.min_y && y <= g.max_y)) {
    return kInvalidPixel;
  }
  std::int32_t ix = static_cast<std::int32_t>((x - g.min_x) / g.pixel_w);
  std::int32_t iy = static_cast<std::int32_t>((y - g.min_y) / g.pixel_h);
  if (ix == g.width) ix = g.width - 1;
  if (iy == g.height) iy = g.height - 1;
  return static_cast<std::uint32_t>(iy) * static_cast<std::uint32_t>(g.width) +
         static_cast<std::uint32_t>(ix);
}

inline std::size_t ScalarComputePixelIndices(const SplatGeometry& g,
                                             const float* xs, const float* ys,
                                             std::size_t count,
                                             std::uint32_t* out) {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = ScalarPixelIndex(g, xs[i], ys[i]);
    hits += out[i] != kInvalidPixel;
  }
  return hits;
}

inline std::uint64_t ScalarSumSpanU32(const std::uint32_t* v, std::size_t n) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) sum += v[i];
  return sum;
}

/// Appends ascending indices of nonzero entries; `base` offsets the stored
/// index so vector callers can reuse it for tails.
inline std::size_t ScalarGatherNonZeroU32(const std::uint32_t* v,
                                          std::size_t n, std::uint32_t base,
                                          std::uint32_t* out) {
  std::size_t found = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] != 0) out[found++] = base + static_cast<std::uint32_t>(i);
  }
  return found;
}

// The predicate bodies combine their compares with `&` rather than `&&`:
// the same truth value (the compares have no side effects) without a
// data-dependent branch per row.

inline void ScalarAndTimeRange(const std::int64_t* t, std::size_t n,
                               std::int64_t begin, std::int64_t end,
                               std::uint8_t* mask) {
  for (std::size_t i = 0; i < n; ++i) {
    mask[i] &= static_cast<std::uint8_t>((t[i] >= begin) & (t[i] < end));
  }
}

/// Ordered compares: a NaN value fails.
inline void ScalarAndFloatRange(const float* v, std::size_t n, float lo,
                                float hi, std::uint8_t* mask) {
  for (std::size_t i = 0; i < n; ++i) {
    mask[i] &= static_cast<std::uint8_t>((v[i] >= lo) & (v[i] <= hi));
  }
}

/// BoundingBox::Contains on the widened point: closed box in double.
inline void ScalarAndWindow(const geometry::BoundingBox& box, const float* xs,
                            const float* ys, std::size_t n,
                            std::uint8_t* mask) {
  for (std::size_t i = 0; i < n; ++i) {
    const double x = xs[i];
    const double y = ys[i];
    mask[i] &= static_cast<std::uint8_t>((x >= box.min_x) & (x <= box.max_x) &
                                         (y >= box.min_y) & (y <= box.max_y));
  }
}

}  // namespace urbane::raster::internal

#endif  // URBANE_RASTER_KERNELS_INL_H_
