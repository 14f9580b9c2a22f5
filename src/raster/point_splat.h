#ifndef URBANE_RASTER_POINT_SPLAT_H_
#define URBANE_RASTER_POINT_SPLAT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "raster/buffer.h"
#include "raster/kernels.h"
#include "raster/viewport.h"

namespace urbane::raster {

/// Splats points into an aggregate framebuffer — the software analogue of
/// rendering a vertex buffer of GL_POINTS with additive blending, which is
/// the first pass of Raster Join (building the per-pixel point texture).
///
/// `weight(i)` supplies the blended value for point i (1 for COUNT, the
/// attribute value for SUM). Returns the number of points that landed inside
/// the viewport.
template <typename T, typename WeightFn>
std::size_t SplatPoints(const Viewport& vp, const float* xs, const float* ys,
                        std::size_t count, BlendOp op, WeightFn&& weight,
                        Buffer2D<T>& target) {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < count; ++i) {
    int ix;
    int iy;
    if (!vp.PixelForPoint({xs[i], ys[i]}, ix, iy)) {
      continue;
    }
    ApplyBlend(op, target.at(ix, iy), static_cast<T>(weight(i)));
    ++hits;
  }
  return hits;
}

/// Splats only the points named by `subset` (row ids) — used after filter
/// evaluation, mirroring how the GPU path re-uploads only surviving points.
template <typename T, typename WeightFn>
std::size_t SplatPointsSubset(const Viewport& vp, const float* xs,
                              const float* ys,
                              const std::vector<std::uint32_t>& subset,
                              BlendOp op, WeightFn&& weight,
                              Buffer2D<T>& target) {
  std::size_t hits = 0;
  for (const std::uint32_t i : subset) {
    int ix;
    int iy;
    if (!vp.PixelForPoint({xs[i], ys[i]}, ix, iy)) {
      continue;
    }
    ApplyBlend(op, target.at(ix, iy), static_cast<T>(weight(i)));
    ++hits;
  }
  return hits;
}

/// Computes the framebuffer index of each point through the active SIMD
/// kernels (kInvalidPixel marks points outside the canvas). Bit-identical
/// to Viewport::PixelForPoint per point, at every SIMD level.
inline std::size_t ComputeSplatIndices(const Viewport& vp, const float* xs,
                                       const float* ys, std::size_t count,
                                       std::uint32_t* out) {
  return ActiveKernels().compute_pixel_indices(SplatGeometry::From(vp), xs,
                                               ys, count, out);
}

}  // namespace urbane::raster

#endif  // URBANE_RASTER_POINT_SPLAT_H_
