#ifndef URBANE_RASTER_VIEWPORT_H_
#define URBANE_RASTER_VIEWPORT_H_

#include <cmath>

#include "geometry/bounding_box.h"
#include "geometry/point.h"
#include "util/logging.h"

namespace urbane::raster {

/// Maps a world-coordinate window onto a W x H pixel grid (the "canvas" that
/// Raster Join draws on). Pixel (ix, iy) covers the half-open world cell
/// [min_x + ix*pw, min_x + (ix+1)*pw) x [min_y + iy*ph, min_y + (iy+1)*ph),
/// with iy growing upward (math convention; the image writer flips rows).
///
/// The raster-join error bound ε is the length of a pixel-cell diagonal: a
/// point assigned to a region by pixel ownership is at most ε away from the
/// region's true boundary.
class Viewport {
 public:
  Viewport(const geometry::BoundingBox& world, int width, int height)
      : world_(world), width_(width), height_(height) {
    URBANE_CHECK(width > 0 && height > 0) << "viewport must be non-empty";
    URBANE_CHECK(!world.IsEmpty()) << "world bounds must be non-empty";
    pixel_w_ = world.Width() / width;
    pixel_h_ = world.Height() / height;
    URBANE_CHECK(pixel_w_ > 0.0 && pixel_h_ > 0.0)
        << "world bounds must have positive extent";
  }

  /// Square-pixel viewport: chooses the height to (approximately) preserve
  /// the world aspect ratio at the given width.
  static Viewport WithSquarePixels(const geometry::BoundingBox& world,
                                   int width) {
    const double aspect = world.Height() / world.Width();
    const int height =
        std::max(1, static_cast<int>(std::lround(width * aspect)));
    return Viewport(world, width, height);
  }

  int width() const { return width_; }
  int height() const { return height_; }
  const geometry::BoundingBox& world() const { return world_; }
  double pixel_width() const { return pixel_w_; }
  double pixel_height() const { return pixel_h_; }

  /// Geometric error bound of pixel-ownership assignment (cell diagonal).
  double EpsilonWorld() const {
    return std::sqrt(pixel_w_ * pixel_w_ + pixel_h_ * pixel_h_);
  }

  /// Continuous pixel coordinates (pixel ix covers [ix, ix+1)).
  double WorldToPixelX(double wx) const {
    return (wx - world_.min_x) / pixel_w_;
  }
  double WorldToPixelY(double wy) const {
    return (wy - world_.min_y) / pixel_h_;
  }

  geometry::Vec2 PixelCenter(int ix, int iy) const {
    return {world_.min_x + (ix + 0.5) * pixel_w_,
            world_.min_y + (iy + 0.5) * pixel_h_};
  }

  geometry::BoundingBox PixelCell(int ix, int iy) const {
    return {world_.min_x + ix * pixel_w_, world_.min_y + iy * pixel_h_,
            world_.min_x + (ix + 1) * pixel_w_,
            world_.min_y + (iy + 1) * pixel_h_};
  }

  bool PixelInBounds(int ix, int iy) const {
    return ix >= 0 && ix < width_ && iy >= 0 && iy < height_;
  }

  /// Pixel owning a world point. Points on the max edge are folded into the
  /// last row/column so the world box is fully covered; returns false for
  /// points outside the world box.
  bool PixelForPoint(const geometry::Vec2& p, int& ix, int& iy) const {
    if (!world_.Contains(p)) {
      return false;
    }
    ix = static_cast<int>(WorldToPixelX(p.x));
    iy = static_cast<int>(WorldToPixelY(p.y));
    if (ix == width_) ix = width_ - 1;
    if (iy == height_) iy = height_ - 1;
    return PixelInBounds(ix, iy);
  }

 private:
  geometry::BoundingBox world_;
  int width_;
  int height_;
  double pixel_w_;
  double pixel_h_;
};

}  // namespace urbane::raster

#endif  // URBANE_RASTER_VIEWPORT_H_
