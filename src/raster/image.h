#ifndef URBANE_RASTER_IMAGE_H_
#define URBANE_RASTER_IMAGE_H_

#include <cstdint>
#include <string>

#include "raster/buffer.h"
#include "util/color.h"
#include "util/status.h"

namespace urbane::raster {

/// RGB image buffer (row 0 = bottom, consistent with Viewport; writers flip).
using Image = Buffer2D<Rgb>;

/// Writes a binary PPM (P6). Rows are flipped so the file displays with y
/// growing downward as image viewers expect.
Status WritePpm(const Image& image, const std::string& path);

/// Maps a scalar buffer through a colormap into an image. Values are scaled
/// by [lo, hi]; pass lo == hi to auto-scale to the buffer's min/max.
Image ColormapBuffer(const Buffer2D<float>& values, const Colormap& colormap,
                     double lo = 0.0, double hi = 0.0);

/// Count-buffer convenience (log scale optional — urban point densities are
/// heavy-tailed, matching Urbane's heatmap display).
Image ColormapCounts(const Buffer2D<std::uint32_t>& counts,
                     const Colormap& colormap, bool log_scale = true);

}  // namespace urbane::raster

#endif  // URBANE_RASTER_IMAGE_H_
