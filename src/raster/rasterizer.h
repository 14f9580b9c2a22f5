#ifndef URBANE_RASTER_RASTERIZER_H_
#define URBANE_RASTER_RASTERIZER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "geometry/polygon.h"
#include "geometry/triangulate.h"
#include "raster/viewport.h"

namespace urbane::raster {

/// Pixel-coverage rules
/// --------------------
/// A pixel is covered by a shape iff the pixel's *center* is inside the
/// shape, with half-open boundary ties broken toward the left/bottom. This
/// is the standard GPU sample-point rule; it guarantees that a tessellated
/// polygon (triangle path) and the polygon itself (scanline path) cover the
/// same pixel set, and that triangles sharing an edge never double-cover.

/// Scan converts one triangle; `emit(ix, iy)` is called once per covered
/// pixel. Degenerate (zero-area) triangles emit nothing.
template <typename Emit>
void RasterizeTriangle(const Viewport& vp, const geometry::Triangle& tri,
                       Emit&& emit) {
  geometry::Vec2 a = tri.a;
  geometry::Vec2 b = tri.b;
  geometry::Vec2 c = tri.c;
  const double orient = geometry::Orient2d(a, b, c);
  if (orient == 0.0) {
    return;
  }
  if (orient < 0.0) {
    std::swap(b, c);  // enforce counter-clockwise winding
  }

  geometry::BoundingBox box;
  box.Extend(a);
  box.Extend(b);
  box.Extend(c);
  const int ix_lo = std::max(
      0, static_cast<int>(std::floor(vp.WorldToPixelX(box.min_x) - 0.5)));
  const int ix_hi = std::min(
      vp.width() - 1,
      static_cast<int>(std::ceil(vp.WorldToPixelX(box.max_x) - 0.5)));
  const int iy_lo = std::max(
      0, static_cast<int>(std::floor(vp.WorldToPixelY(box.min_y) - 0.5)));
  const int iy_hi = std::min(
      vp.height() - 1,
      static_cast<int>(std::ceil(vp.WorldToPixelY(box.max_y) - 0.5)));
  if (ix_lo > ix_hi || iy_lo > iy_hi) {
    return;
  }

  // Edge functions, evaluated at pixel centers and stepped incrementally.
  struct EdgeFn {
    double value_at_row_start;
    double dx;  // change per +1 pixel in x
    double dy;  // change per +1 pixel in y
    bool include_zero;
  };
  const geometry::Vec2 verts[3] = {a, b, c};
  EdgeFn edges[3];
  const geometry::Vec2 origin = vp.PixelCenter(ix_lo, iy_lo);
  for (int e = 0; e < 3; ++e) {
    const geometry::Vec2& p = verts[e];
    const geometry::Vec2& q = verts[(e + 1) % 3];
    const geometry::Vec2 d = q - p;
    // E(s) = d x (s - p); E > 0 strictly inside (CCW). Ties included only on
    // left (downward) and bottom (rightward horizontal) edges so adjacent
    // triangles partition shared pixels.
    edges[e].value_at_row_start = d.Cross(origin - p);
    edges[e].dx = -d.y * vp.pixel_width();
    edges[e].dy = d.x * vp.pixel_height();
    edges[e].include_zero = d.y < 0.0 || (d.y == 0.0 && d.x > 0.0);
  }

  for (int iy = iy_lo; iy <= iy_hi; ++iy) {
    double ev[3] = {edges[0].value_at_row_start, edges[1].value_at_row_start,
                    edges[2].value_at_row_start};
    for (int ix = ix_lo; ix <= ix_hi; ++ix) {
      bool inside = true;
      for (int e = 0; e < 3; ++e) {
        if (!(ev[e] > 0.0 || (ev[e] == 0.0 && edges[e].include_zero))) {
          inside = false;
          break;
        }
      }
      if (inside) {
        emit(ix, iy);
      }
      ev[0] += edges[0].dx;
      ev[1] += edges[1].dx;
      ev[2] += edges[2].dx;
    }
    edges[0].value_at_row_start += edges[0].dy;
    edges[1].value_at_row_start += edges[1].dy;
    edges[2].value_at_row_start += edges[2].dy;
  }
}

namespace internal {

/// Computes the sorted even-odd crossing x-positions of all polygon rings
/// with the horizontal line y = `scan_y`, appending into `crossings`.
void CollectRowCrossings(const geometry::Polygon& polygon, double scan_y,
                         std::vector<double>& crossings);

/// First pixel column whose center x >= world x (continuous -> discrete).
inline int FirstCenterAtOrAfter(const Viewport& vp, double world_x) {
  return static_cast<int>(std::ceil(vp.WorldToPixelX(world_x) - 0.5));
}

}  // namespace internal

/// One half-open run of covered pixels: row y, columns [x_begin, x_end).
struct PixelSpan {
  std::int32_t y;
  std::int32_t x_begin;
  std::int32_t x_end;
};

/// Scanline (even-odd) fill of a polygon with holes; `emit(iy, x_begin,
/// x_end)` receives half-open pixel spans on each covered row. Equivalent
/// pixel set to rasterizing the polygon's triangulation, but needs no
/// tessellation and handles holes directly — this is the region-drawing
/// primitive Raster Join uses to sweep a polygon over the point canvas.
template <typename EmitSpan>
void ScanlineFillPolygon(const Viewport& vp, const geometry::Polygon& polygon,
                         EmitSpan&& emit) {
  const geometry::BoundingBox box = polygon.Bounds();
  if (box.IsEmpty()) return;
  const int iy_lo = std::max(
      0, static_cast<int>(std::floor(vp.WorldToPixelY(box.min_y) - 0.5)));
  const int iy_hi = std::min(
      vp.height() - 1,
      static_cast<int>(std::ceil(vp.WorldToPixelY(box.max_y) - 0.5)));
  std::vector<double> crossings;
  for (int iy = iy_lo; iy <= iy_hi; ++iy) {
    const double scan_y = vp.PixelCenter(0, iy).y;
    crossings.clear();
    internal::CollectRowCrossings(polygon, scan_y, crossings);
    for (std::size_t k = 0; k + 1 < crossings.size(); k += 2) {
      int x_begin = internal::FirstCenterAtOrAfter(vp, crossings[k]);
      int x_end = internal::FirstCenterAtOrAfter(vp, crossings[k + 1]);
      x_begin = std::max(x_begin, 0);
      x_end = std::min(x_end, vp.width());
      if (x_begin < x_end) {
        emit(iy, x_begin, x_end);
      }
    }
  }
}

/// Per-pixel adapter over ScanlineFillPolygon.
template <typename Emit>
void ScanlineFillPolygonPixels(const Viewport& vp,
                               const geometry::Polygon& polygon,
                               Emit&& emit) {
  ScanlineFillPolygon(vp, polygon, [&](int iy, int x_begin, int x_end) {
    for (int ix = x_begin; ix < x_end; ++ix) {
      emit(ix, iy);
    }
  });
}

/// Conservatively rasterizes a single segment: `emit(ix, iy)` is called for
/// every pixel whose closed cell the segment touches (never misses a cell).
/// Out-of-viewport parts are skipped.
template <typename Emit>
void RasterizeSegmentConservative(const Viewport& vp, const geometry::Vec2& a,
                                  const geometry::Vec2& b, Emit&& emit) {
  const double x_lo = std::min(a.x, b.x);
  const double x_hi = std::max(a.x, b.x);
  const double y_lo_seg = std::min(a.y, b.y);
  const double y_hi_seg = std::max(a.y, b.y);
  const geometry::BoundingBox& world = vp.world();
  if (x_hi < world.min_x || x_lo > world.max_x || y_hi_seg < world.min_y ||
      y_lo_seg > world.max_y) {
    return;
  }

  const int ix_first =
      std::max(0, static_cast<int>(std::floor(vp.WorldToPixelX(x_lo))));
  const int ix_last = std::min(
      vp.width() - 1, static_cast<int>(std::floor(vp.WorldToPixelX(x_hi))));

  const bool vertical = (b.x == a.x);
  const double inv_dx = vertical ? 0.0 : 1.0 / (b.x - a.x);

  for (int ix = ix_first; ix <= ix_last; ++ix) {
    double y0;
    double y1;
    if (vertical) {
      y0 = y_lo_seg;
      y1 = y_hi_seg;
    } else {
      // Segment's y-range over this column's x-slab.
      const geometry::BoundingBox cell = vp.PixelCell(ix, 0);
      const double xs = std::max(x_lo, cell.min_x);
      const double xe = std::min(x_hi, cell.max_x);
      const double t0 = (xs - a.x) * inv_dx;
      const double t1 = (xe - a.x) * inv_dx;
      const double ya = a.y + (b.y - a.y) * t0;
      const double yb = a.y + (b.y - a.y) * t1;
      y0 = std::min(ya, yb);
      y1 = std::max(ya, yb);
    }
    if (y1 < world.min_y || y0 > world.max_y) {
      continue;
    }
    const int iy_first =
        std::max(0, static_cast<int>(std::floor(vp.WorldToPixelY(y0))));
    const int iy_last = std::min(
        vp.height() - 1, static_cast<int>(std::floor(vp.WorldToPixelY(y1))));
    for (int iy = iy_first; iy <= iy_last; ++iy) {
      emit(ix, iy);
    }
  }
}

/// Conservatively rasterizes every ring edge of the polygon. Used by the
/// accurate raster join to find the pixels where pixel-ownership may err
/// (cells straddling a region boundary).
template <typename Emit>
void RasterizePolygonBoundary(const Viewport& vp,
                              const geometry::Polygon& polygon, Emit&& emit) {
  auto do_ring = [&](const geometry::Ring& ring) {
    const std::size_t n = ring.size();
    for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
      RasterizeSegmentConservative(vp, ring[j], ring[i], emit);
    }
  };
  do_ring(polygon.outer());
  for (const geometry::Ring& hole : polygon.holes()) {
    do_ring(hole);
  }
}

/// Rasterizes a polygon via its triangulation (the GPU-authentic path).
/// Returns false when triangulation fails (degenerate polygon).
template <typename Emit>
bool RasterizePolygonTriangles(const Viewport& vp,
                               const geometry::Polygon& polygon,
                               Emit&& emit) {
  auto triangles = geometry::TriangulatePolygon(polygon);
  if (!triangles.ok()) {
    return false;
  }
  for (const geometry::Triangle& tri : triangles.value()) {
    RasterizeTriangle(vp, tri, emit);
  }
  return true;
}

}  // namespace urbane::raster

#endif  // URBANE_RASTER_RASTERIZER_H_
