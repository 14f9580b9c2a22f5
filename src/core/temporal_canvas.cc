#include "core/temporal_canvas.h"

#include <algorithm>
#include <tuple>

#include "raster/rasterizer.h"
#include "util/timer.h"

namespace urbane::core {

StatusOr<std::unique_ptr<TemporalCanvasIndex>> TemporalCanvasIndex::Build(
    const data::PointTable& points, const data::RegionSet& regions,
    const TemporalCanvasOptions& options) {
  if (options.resolution <= 0 || options.time_bins <= 0) {
    return Status::InvalidArgument(
        "temporal canvas needs positive resolution and time_bins");
  }
  WallTimer timer;
  // The raster joins' canvas: it covers the regions, so a point outside
  // their box is binned nowhere.
  URBANE_ASSIGN_OR_RETURN(const raster::Viewport canvas,
                          MakeValidatedCanvas(regions, options.resolution));

  auto index = std::unique_ptr<TemporalCanvasIndex>(
      new TemporalCanvasIndex(points, regions, canvas, options.time_bins));
  std::tie(index->min_time_, index->max_time_) = points.TimeRange();
  index->pixels_per_canvas_ =
      static_cast<std::size_t>(index->viewport_.width()) *
      index->viewport_.height();
  index->prefix_.assign(
      index->pixels_per_canvas_ *
          (static_cast<std::size_t>(options.time_bins) + 1),
      0);

  // Bin pass: accumulate each point into its bin's canvas slice (stored at
  // prefix index bin+1), then prefix-sum along time.
  for (std::size_t i = 0; i < points.size(); ++i) {
    int ix;
    int iy;
    if (!index->viewport_.PixelForPoint({points.x(i), points.y(i)}, ix, iy)) {
      continue;
    }
    const int bin = index->BinForTime(points.t(i));
    const std::size_t offset =
        (static_cast<std::size_t>(bin) + 1) * index->pixels_per_canvas_ +
        static_cast<std::size_t>(iy) * index->viewport_.width() + ix;
    ++index->prefix_[offset];
  }
  for (int b = 1; b <= options.time_bins; ++b) {
    std::uint32_t* current =
        index->prefix_.data() +
        static_cast<std::size_t>(b) * index->pixels_per_canvas_;
    const std::uint32_t* previous =
        current - index->pixels_per_canvas_;
    for (std::size_t p = 0; p < index->pixels_per_canvas_; ++p) {
      current[p] += previous[p];
    }
  }
  index->build_seconds_ = timer.ElapsedSeconds();
  return index;
}

int TemporalCanvasIndex::BinForTime(std::int64_t t) const {
  // Largest bin whose start is <= t; defined via BinStart so the two
  // helpers can never disagree about edge ownership (float rounding in the
  // bin-width division would otherwise split them).
  int lo = 0;
  int hi = time_bins_ - 1;
  while (lo < hi) {
    const int mid = (lo + hi + 1) / 2;
    if (BinStart(mid) <= t) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

std::int64_t TemporalCanvasIndex::BinStart(int b) const {
  const double span = static_cast<double>(max_time_ - min_time_) + 1.0;
  return min_time_ + static_cast<std::int64_t>(
                         span * b / static_cast<double>(time_bins_));
}

StatusOr<QueryResult> TemporalCanvasIndex::QueryTimeWindow(
    std::int64_t t_begin, std::int64_t t_end, std::int64_t* snapped_begin,
    std::int64_t* snapped_end) {
  if (t_end <= t_begin) {
    return Status::InvalidArgument("empty time window");
  }
  // Snap outward to bin edges (never drops a requested point).
  int b0 = 0;
  while (b0 < time_bins_ && BinStart(b0 + 1) <= t_begin) {
    ++b0;
  }
  int b1 = b0 + 1;
  while (b1 < time_bins_ && BinStart(b1) < t_end) {
    ++b1;
  }
  if (snapped_begin != nullptr) {
    *snapped_begin = BinStart(b0);
  }
  if (snapped_end != nullptr) {
    *snapped_end = b1 == time_bins_ ? max_time_ + 1 : BinStart(b1);
  }

  const std::uint32_t* lo = PrefixCanvas(b0);
  const std::uint32_t* hi = PrefixCanvas(b1);

  QueryResult result;
  result.values.reserve(regions_.size());
  result.counts.reserve(regions_.size());
  const int width = viewport_.width();
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    std::uint64_t count = 0;
    for (const geometry::Polygon& part : regions_[r].geometry.parts()) {
      raster::ScanlineFillPolygon(
          viewport_, part, [&](int y, int x0, int x1) {
            const std::size_t base = static_cast<std::size_t>(y) * width;
            for (int x = x0; x < x1; ++x) {
              count += hi[base + x] - lo[base + x];
            }
          });
    }
    result.counts.push_back(count);
    result.values.push_back(static_cast<double>(count));
  }
  return result;
}

std::size_t TemporalCanvasIndex::MemoryBytes() const {
  // Committed size, not capacity: the prefix stack is built once and never
  // grows, so capacity() could overstate (growth slack) what the index
  // actually holds; the object header itself is counted so T2/F10 memory
  // rows reflect the whole structure.
  return sizeof(*this) + prefix_.size() * sizeof(std::uint32_t);
}

}  // namespace urbane::core
