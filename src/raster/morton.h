#ifndef URBANE_RASTER_MORTON_H_
#define URBANE_RASTER_MORTON_H_

// Morton (Z-order) pre-sort for the splat pass.
//
// Splatting points in table order scatters writes across the whole
// framebuffer; sorting them once by the Morton code of their target pixel
// makes consecutive splats land in the same 64×64 tile (a Z-order curve
// visits tiles depth-first), so the render-target lines a splat touches are
// almost always already in cache.
//
// Determinism: the key is pixel-granular and the sort is stable, so all
// points of one pixel keep their original row order — per-pixel float
// accumulation is therefore bit-identical to the unsorted splat, for every
// blend op.
//
// Lifecycle: a raster join builds one order per (point source, canvas) —
// part of the source's point-side state (core::RasterPointSource) — and
// reuses it across queries. The canvas covers the regions alone, so it
// changes only when the facade's ε ratchet picks a finer resolution; the
// facade then rebuilds the bounded join's point sources and bumps its
// config epoch, which is what keeps the cache consistent with QueryCache
// invalidation — there is no cross-epoch reuse to guard against.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "raster/viewport.h"

namespace urbane::raster {

/// Spreads the low 16 bits of `v` into the even bit positions.
inline std::uint32_t MortonSpread16(std::uint32_t v) {
  v &= 0xFFFFu;
  v = (v | (v << 8)) & 0x00FF00FFu;
  v = (v | (v << 4)) & 0x0F0F0F0Fu;
  v = (v | (v << 2)) & 0x33333333u;
  v = (v | (v << 1)) & 0x55555555u;
  return v;
}

/// Z-order key of a pixel coordinate (x, y), each < 2^16.
inline std::uint32_t MortonPixelKey(std::uint32_t x, std::uint32_t y) {
  return MortonSpread16(x) | (MortonSpread16(y) << 1);
}

/// The stable ascending order of `keys`: a permutation of 0..keys.size()-1
/// sorted by key, equal keys keeping their index order. The splat order and
/// the store writer's batch sort both order rows by a Morton key through it.
std::vector<std::uint32_t> StableKeyOrder(
    const std::vector<std::uint32_t>& keys);

/// A dataset's points re-ordered along the canvas Z-order curve, with
/// coordinates gathered into contiguous arrays so the splat kernels read
/// them with unit stride. Points outside the canvas sort to the end (they
/// are skipped by the splat exactly as in table order).
class MortonSplatOrder {
 public:
  MortonSplatOrder() = default;

  /// Builds the order for `count` points on `vp`'s canvas. Canvases wider
  /// or taller than 2^16 pixels disable the order (enabled() == false);
  /// callers then splat in table order.
  static MortonSplatOrder Build(const Viewport& vp, const float* xs,
                                const float* ys, std::size_t count);

  bool enabled() const { return enabled_; }
  std::size_t size() const { return ids_.size(); }

  /// Original row ids in Morton order (stable within a pixel).
  const std::vector<std::uint32_t>& ids() const { return ids_; }
  /// Coordinates gathered in the same order: xs()[k] == table_xs[ids()[k]].
  const std::vector<float>& xs() const { return xs_; }
  const std::vector<float>& ys() const { return ys_; }

  std::size_t MemoryBytes() const {
    return ids_.capacity() * sizeof(std::uint32_t) +
           xs_.capacity() * sizeof(float) + ys_.capacity() * sizeof(float);
  }

 private:
  bool enabled_ = false;
  std::vector<std::uint32_t> ids_;
  std::vector<float> xs_;
  std::vector<float> ys_;
};

}  // namespace urbane::raster

#endif  // URBANE_RASTER_MORTON_H_
