#ifndef URBANE_RASTER_TILE_RASTER_H_
#define URBANE_RASTER_TILE_RASTER_H_

// Tile-binned triangle rasterizer with fixed-point edge functions.
//
// The legacy RasterizeTriangle (rasterizer.h) steps three double-precision
// edge functions across the whole bounding box, one pixel at a time. This
// path restructures that loop around 64×64 screen tiles:
//
//   * vertices snap to a 1/65536-pixel lattice; edge functions become int64
//     cross products, evaluated in closed form — no incremental drift, and
//     the half-open tie rule (include_zero) is exact by construction;
//   * each edge's bias folds the tie rule into the sign bit, so "covered"
//     is simply (e0 | e1 | e2) >= 0 — the form the SIMD coverage kernels
//     test four/two lanes at a time;
//   * edge functions are linear, so their extrema over a tile sit at the
//     tile's corners: a tile where some edge's maximum is negative is
//     rejected outright, and a tile where every edge's minimum is
//     non-negative emits full-width spans with no per-pixel tests. Only
//     boundary tiles run the per-pixel coverage kernel.
//
// Determinism contract: the emitted pixel set depends only on the snapped
// geometry, never on the SIMD level (the coverage kernels are bit-equal at
// every level). On inputs whose pixel-space vertices already lie on the
// 1/65536 lattice, snapping is the identity and the pixel set equals the
// legacy double-precision oracle exactly (the simd fuzz suite drives both
// paths on lattice inputs and compares pixel sets). Triangles whose snapped
// coordinates leave the safe int64 range fall back to the legacy path —
// a geometry-only decision, identical at every SIMD level.

#include <cstdint>
#include <vector>

#include "geometry/polygon.h"
#include "geometry/triangulate.h"
#include "raster/kernels.h"
#include "raster/rasterizer.h"
#include "raster/tile.h"
#include "raster/viewport.h"

namespace urbane::raster {

/// Vertex snap granularity: 1/65536 of a pixel.
inline constexpr int kSubPixelBits = 16;
inline constexpr std::int64_t kSubPixelScale = std::int64_t{1} << kSubPixelBits;
inline constexpr std::int64_t kSubPixelHalf = kSubPixelScale / 2;

/// Snapped coordinates beyond this magnitude (±8192 pixels) could overflow
/// the int64 edge products; such triangles use the legacy double path.
inline constexpr std::int64_t kMaxSnappedCoord = std::int64_t{1} << 29;

/// One half-open run of covered pixels: row y, columns [x_begin, x_end).
struct PixelSpan {
  std::int32_t y;
  std::int32_t x_begin;
  std::int32_t x_end;
};

struct TileRasterStats {
  std::uint64_t tiles_visited = 0;
  std::uint64_t tiles_full = 0;     // trivially accepted (no per-pixel tests)
  std::uint64_t tiles_partial = 0;  // ran the coverage kernel
  std::uint64_t fragments = 0;      // covered pixels emitted
};

namespace internal {

/// Snapped, biased, clamped per-triangle state. base[k] is edge k's biased
/// value at the pixel-center of (ix_lo, iy_lo); dx/dy are per-pixel steps.
struct TriangleTileSetup {
  bool degenerate = false;     // zero snapped area, or empty pixel range
  bool use_fallback = false;   // coordinates out of fixed-point range
  int ix_lo = 0, ix_hi = -1;   // closed pixel ranges, clamped to the canvas
  int iy_lo = 0, iy_hi = -1;
  std::int64_t base[3] = {0, 0, 0};
  std::int64_t dx[3] = {0, 0, 0};
  std::int64_t dy[3] = {0, 0, 0};
};

TriangleTileSetup SetupTriangle(const Viewport& vp,
                                const geometry::Triangle& tri);

/// Emits the runs of set bits in `mask` (pixels [x0+bit, ...) on row y) as
/// half-open spans, ascending.
template <typename EmitSpan>
inline void EmitMaskSpans(std::uint64_t mask, int x0, int y, EmitSpan&& emit) {
  while (mask != 0) {
    const int start = __builtin_ctzll(mask);
    const std::uint64_t shifted = mask >> start;
    const std::uint64_t inverted = ~shifted;
    const int len = inverted == 0 ? 64 - start : __builtin_ctzll(inverted);
    emit(y, x0 + start, x0 + start + len);
    if (start + len >= 64) return;
    mask &= ~std::uint64_t{0} << (start + len);
  }
}

}  // namespace internal

/// Scan converts one triangle through the tile walk; `emit(y, x_begin,
/// x_end)` receives half-open covered spans (tile-major order). Degenerate
/// triangles emit nothing.
template <typename EmitSpan>
void TiledRasterizeTriangle(const Viewport& vp, const geometry::Triangle& tri,
                            const RasterKernels& kernels, EmitSpan&& emit,
                            TileRasterStats* stats = nullptr) {
  const internal::TriangleTileSetup setup = internal::SetupTriangle(vp, tri);
  if (setup.degenerate) return;
  if (setup.use_fallback) {
    RasterizeTriangle(vp, tri, [&](int ix, int iy) {
      emit(iy, ix, ix + 1);
      if (stats != nullptr) ++stats->fragments;
    });
    return;
  }

  const int tx_lo = TileCoord(setup.ix_lo), tx_hi = TileCoord(setup.ix_hi);
  const int ty_lo = TileCoord(setup.iy_lo), ty_hi = TileCoord(setup.iy_hi);
  for (int ty = ty_lo; ty <= ty_hi; ++ty) {
    const int y0 = ty == ty_lo ? setup.iy_lo : ty << kTileBits;
    const int y1 = ty == ty_hi ? setup.iy_hi : ((ty + 1) << kTileBits) - 1;
    for (int tx = tx_lo; tx <= tx_hi; ++tx) {
      const int x0 = tx == tx_lo ? setup.ix_lo : tx << kTileBits;
      const int x1 = tx == tx_hi ? setup.ix_hi : ((tx + 1) << kTileBits) - 1;
      if (stats != nullptr) ++stats->tiles_visited;

      // Edge functions are linear, so min/max over the tile sit at its
      // corners. Reject on any all-negative edge; accept fully when every
      // edge is non-negative at all four corners.
      bool reject = false;
      bool full = true;
      std::int64_t row_e[3];
      for (int k = 0; k < 3; ++k) {
        const std::int64_t v00 = setup.base[k] +
                                 (x0 - setup.ix_lo) * setup.dx[k] +
                                 (y0 - setup.iy_lo) * setup.dy[k];
        const std::int64_t v10 = v00 + (x1 - x0) * setup.dx[k];
        const std::int64_t v01 = v00 + (y1 - y0) * setup.dy[k];
        const std::int64_t v11 = v10 + (y1 - y0) * setup.dy[k];
        const std::int64_t lo = std::min(std::min(v00, v10), std::min(v01, v11));
        const std::int64_t hi = std::max(std::max(v00, v10), std::max(v01, v11));
        if (hi < 0) {
          reject = true;
          break;
        }
        if (lo < 0) full = false;
        row_e[k] = v00;
      }
      if (reject) continue;

      const int width = x1 - x0 + 1;
      if (full) {
        if (stats != nullptr) {
          ++stats->tiles_full;
          stats->fragments +=
              static_cast<std::uint64_t>(width) *
              static_cast<std::uint64_t>(y1 - y0 + 1);
        }
        for (int y = y0; y <= y1; ++y) emit(y, x0, x1 + 1);
        continue;
      }

      if (stats != nullptr) ++stats->tiles_partial;
      for (int y = y0; y <= y1; ++y) {
        EdgeRowSetup row;
        for (int k = 0; k < 3; ++k) {
          row.e[k] = row_e[k];
          row.dx[k] = setup.dx[k];
        }
        const std::uint64_t mask = kernels.edge_coverage_mask(row, width);
        if (mask != 0) {
          if (stats != nullptr) {
            stats->fragments +=
                static_cast<std::uint64_t>(__builtin_popcountll(mask));
          }
          internal::EmitMaskSpans(mask, x0, y, emit);
        }
        row_e[0] += setup.dy[0];
        row_e[1] += setup.dy[1];
        row_e[2] += setup.dy[2];
      }
    }
  }
}

}  // namespace urbane::raster

#endif  // URBANE_RASTER_TILE_RASTER_H_
