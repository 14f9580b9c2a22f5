#include "raster/image.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>

namespace urbane::raster {

Status WritePpm(const Image& image, const std::string& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return Status::IoError("cannot open image file for writing: " + path);
  }
  file << "P6\n" << image.width() << " " << image.height() << "\n255\n";
  for (int y = image.height() - 1; y >= 0; --y) {
    const Rgb* row = image.Row(y);
    for (int x = 0; x < image.width(); ++x) {
      const char rgb[3] = {static_cast<char>(row[x].r),
                           static_cast<char>(row[x].g),
                           static_cast<char>(row[x].b)};
      file.write(rgb, 3);
    }
  }
  if (!file) {
    return Status::IoError("write failure on image file: " + path);
  }
  return Status::OK();
}

Image ColormapBuffer(const Buffer2D<float>& values, const Colormap& colormap,
                     double lo, double hi) {
  if (lo == hi) {
    lo = std::numeric_limits<double>::infinity();
    hi = -std::numeric_limits<double>::infinity();
    for (const float v : values.data()) {
      lo = std::min(lo, static_cast<double>(v));
      hi = std::max(hi, static_cast<double>(v));
    }
    if (!(hi > lo)) {
      hi = lo + 1.0;
    }
  }
  Image image(values.width(), values.height());
  for (int y = 0; y < values.height(); ++y) {
    const float* src = values.Row(y);
    Rgb* dst = image.Row(y);
    for (int x = 0; x < values.width(); ++x) {
      dst[x] = colormap.MapRange(src[x], lo, hi);
    }
  }
  return image;
}

Image ColormapCounts(const Buffer2D<std::uint32_t>& counts,
                     const Colormap& colormap, bool log_scale) {
  Buffer2D<float> scaled(counts.width(), counts.height());
  for (int y = 0; y < counts.height(); ++y) {
    const std::uint32_t* src = counts.Row(y);
    float* dst = scaled.Row(y);
    for (int x = 0; x < counts.width(); ++x) {
      dst[x] = log_scale ? std::log1p(static_cast<float>(src[x]))
                         : static_cast<float>(src[x]);
    }
  }
  return ColormapBuffer(scaled, colormap);
}

}  // namespace urbane::raster
