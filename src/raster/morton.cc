#include "raster/morton.h"

#include <algorithm>
#include <numeric>

#include "raster/kernels.h"

namespace urbane::raster {

std::vector<std::uint32_t> StableKeyOrder(
    const std::vector<std::uint32_t>& keys) {
  std::vector<std::uint32_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&keys](std::uint32_t a, std::uint32_t b) {
                     return keys[a] < keys[b];
                   });
  return order;
}

MortonSplatOrder MortonSplatOrder::Build(const Viewport& vp, const float* xs,
                                         const float* ys, std::size_t count) {
  MortonSplatOrder order;
  if (vp.width() <= 0 || vp.height() <= 0 || vp.width() > 0xFFFF ||
      vp.height() > 0xFFFF) {
    return order;  // disabled; callers splat in table order
  }
  order.enabled_ = true;

  // Pixel index per point via the dispatch kernels (identical at every
  // level), then a stable sort by the pixel's Z-order key. Out-of-canvas
  // points get the maximal key and sink to the end.
  std::vector<std::uint32_t> indices(count);
  const SplatGeometry geom = SplatGeometry::From(vp);
  ActiveKernels().compute_pixel_indices(geom, xs, ys, count, indices.data());

  const std::uint32_t width = static_cast<std::uint32_t>(vp.width());
  std::vector<std::uint32_t> keys(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t idx = indices[i];
    keys[i] = idx == kInvalidPixel
                  ? 0xFFFFFFFFu
                  : MortonPixelKey(idx % width, idx / width);
  }

  order.ids_ = StableKeyOrder(keys);

  order.xs_.resize(count);
  order.ys_.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    order.xs_[k] = xs[order.ids_[k]];
    order.ys_[k] = ys[order.ids_[k]];
  }
  return order;
}

}  // namespace urbane::raster
