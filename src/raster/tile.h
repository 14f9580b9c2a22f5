#ifndef URBANE_RASTER_TILE_H_
#define URBANE_RASTER_TILE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace urbane::raster {

/// Screen-space tiles: a fixed grid of kTileSize²-pixel blocks over the
/// canvas. The raster joins count the tiles a region's spans touch
/// (raster.tiles), a locality measure of the sweep.
inline constexpr int kTileBits = 6;
inline constexpr int kTileSize = 1 << kTileBits;  // 64×64 pixels

/// Tile coordinate of a pixel coordinate.
inline int TileCoord(int pixel) { return pixel >> kTileBits; }

/// Tile grid overlaying a width×height canvas.
struct TileGrid {
  int tiles_x = 0;
  int tiles_y = 0;

  static TileGrid For(int width, int height) {
    TileGrid grid;
    grid.tiles_x = (width + kTileSize - 1) >> kTileBits;
    grid.tiles_y = (height + kTileSize - 1) >> kTileBits;
    return grid;
  }
  std::size_t TileCount() const {
    return static_cast<std::size_t>(tiles_x) * static_cast<std::size_t>(tiles_y);
  }
};

/// Counts the distinct tiles a set of pixel spans touches (observability:
/// exec stats report it as raster.tiles).
class TileCoverage {
 public:
  TileCoverage(int width, int height) : grid_(TileGrid::For(width, height)) {
    bits_.assign((grid_.TileCount() + 63) / 64, 0);
  }

  /// Marks the tiles of the half-open span [x_begin, x_end) on row y.
  void AddSpan(int y, int x_begin, int x_end) {
    if (x_begin >= x_end) return;
    const int ty = TileCoord(y);
    const int tx_lo = TileCoord(x_begin);
    const int tx_hi = TileCoord(x_end - 1);
    for (int tx = tx_lo; tx <= tx_hi; ++tx) {
      const std::size_t t =
          static_cast<std::size_t>(ty) * static_cast<std::size_t>(grid_.tiles_x) +
          static_cast<std::size_t>(tx);
      const std::uint64_t bit = std::uint64_t{1} << (t & 63);
      if ((bits_[t >> 6] & bit) == 0) {
        bits_[t >> 6] |= bit;
        ++count_;
      }
    }
  }

  std::size_t count() const { return count_; }

 private:
  TileGrid grid_;
  std::vector<std::uint64_t> bits_;
  std::size_t count_ = 0;
};

}  // namespace urbane::raster

#endif  // URBANE_RASTER_TILE_H_
