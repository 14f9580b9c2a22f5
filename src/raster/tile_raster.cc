#include "raster/tile_raster.h"

#include <algorithm>
#include <cmath>

namespace urbane::raster {

/// Largest canvas side the fixed-point path accepts: pixel centers must
/// stay within kMaxSnappedCoord so the int64 edge products cannot overflow.
static constexpr int kMaxTiledCanvasDim = 8192;

namespace internal {

TriangleTileSetup SetupTriangle(const Viewport& vp,
                                const geometry::Triangle& tri) {
  TriangleTileSetup s;
  if (vp.width() <= 0 || vp.height() <= 0) {
    s.degenerate = true;
    return s;
  }
  if (vp.width() > kMaxTiledCanvasDim || vp.height() > kMaxTiledCanvasDim) {
    s.use_fallback = true;
    return s;
  }

  // Snap the pixel-space vertices to the 1/65536 lattice. Coordinates out
  // of the safe range (or NaN) route to the double fallback — a decision
  // made from geometry alone, so it is identical at every SIMD level.
  const geometry::Vec2 v[3] = {tri.a, tri.b, tri.c};
  std::int64_t sx[3];
  std::int64_t sy[3];
  for (int k = 0; k < 3; ++k) {
    const double px = vp.WorldToPixelX(v[k].x) * static_cast<double>(kSubPixelScale);
    const double py = vp.WorldToPixelY(v[k].y) * static_cast<double>(kSubPixelScale);
    if (!(std::fabs(px) < static_cast<double>(kMaxSnappedCoord)) ||
        !(std::fabs(py) < static_cast<double>(kMaxSnappedCoord))) {
      s.use_fallback = true;
      return s;
    }
    sx[k] = std::llround(px);
    sy[k] = std::llround(py);
  }

  // Enforce counter-clockwise winding in snapped space (positive area).
  const std::int64_t area2 = (sx[1] - sx[0]) * (sy[2] - sy[0]) -
                             (sy[1] - sy[0]) * (sx[2] - sx[0]);
  if (area2 == 0) {
    s.degenerate = true;
    return s;
  }
  if (area2 < 0) {
    std::swap(sx[1], sx[2]);
    std::swap(sy[1], sy[2]);
  }

  // Tight pixel range: columns whose center (ix*S + S/2) can lie in the
  // snapped x-range, rows likewise. Integer ceil/floor division keeps the
  // range exact for negative coordinates too.
  const auto floor_div = [](std::int64_t a, std::int64_t b) {
    return a >= 0 ? a / b : -((-a + b - 1) / b);
  };
  const auto ceil_div = [](std::int64_t a, std::int64_t b) {
    return a >= 0 ? (a + b - 1) / b : -(-a / b);
  };
  const std::int64_t min_sx = std::min({sx[0], sx[1], sx[2]});
  const std::int64_t max_sx = std::max({sx[0], sx[1], sx[2]});
  const std::int64_t min_sy = std::min({sy[0], sy[1], sy[2]});
  const std::int64_t max_sy = std::max({sy[0], sy[1], sy[2]});
  s.ix_lo = static_cast<int>(std::max<std::int64_t>(
      0, ceil_div(min_sx - kSubPixelHalf, kSubPixelScale)));
  s.ix_hi = static_cast<int>(std::min<std::int64_t>(
      vp.width() - 1, floor_div(max_sx - kSubPixelHalf, kSubPixelScale)));
  s.iy_lo = static_cast<int>(std::max<std::int64_t>(
      0, ceil_div(min_sy - kSubPixelHalf, kSubPixelScale)));
  s.iy_hi = static_cast<int>(std::min<std::int64_t>(
      vp.height() - 1, floor_div(max_sy - kSubPixelHalf, kSubPixelScale)));
  if (s.ix_lo > s.ix_hi || s.iy_lo > s.iy_hi) {
    s.degenerate = true;
    return s;
  }

  // Edge functions E(c) = d × (c - p) at the first pixel center, with the
  // half-open tie rule folded into the bias: covered ⇔ E' >= 0 where
  // E' = E - (include_zero ? 0 : 1). The world→pixel map scales both axes
  // by positive factors, so edge-direction signs (and hence the tie rule)
  // match the world-space rule of the double oracle.
  const std::int64_t cx0 =
      static_cast<std::int64_t>(s.ix_lo) * kSubPixelScale + kSubPixelHalf;
  const std::int64_t cy0 =
      static_cast<std::int64_t>(s.iy_lo) * kSubPixelScale + kSubPixelHalf;
  for (int e = 0; e < 3; ++e) {
    const std::int64_t px = sx[e], py = sy[e];
    const std::int64_t qx = sx[(e + 1) % 3], qy = sy[(e + 1) % 3];
    const std::int64_t dxs = qx - px;
    const std::int64_t dys = qy - py;
    const std::int64_t value = dxs * (cy0 - py) - dys * (cx0 - px);
    const bool include_zero = dys < 0 || (dys == 0 && dxs > 0);
    s.base[e] = value - (include_zero ? 0 : 1);
    s.dx[e] = -dys * kSubPixelScale;  // per +1 pixel in x
    s.dy[e] = dxs * kSubPixelScale;   // per +1 pixel in y
  }
  return s;
}

}  // namespace internal

}  // namespace urbane::raster
