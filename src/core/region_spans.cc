#include "core/region_spans.h"

#include <algorithm>

#include "core/raster_targets.h"
#include "raster/morton.h"
#include "raster/rasterizer.h"
#include "raster/tile.h"

namespace urbane::core::internal {

std::size_t RegionSpanCache::MemoryBytes() const {
  return spans.capacity() * sizeof(raster::PixelSpan) +
         span_part_offsets.capacity() * sizeof(std::uint32_t) +
         boundary.capacity() * sizeof(std::uint32_t) +
         boundary_part_offsets.capacity() * sizeof(std::uint32_t);
}

std::size_t SweepGeometry::MemoryBytes() const {
  std::size_t total = regions.capacity() * sizeof(RegionSpanCache) +
                      boundary_keys.capacity() * sizeof(std::uint32_t) +
                      boundary_slots.capacity() * sizeof(std::uint32_t);
  for (const RegionSpanCache& cache : regions) {
    total += cache.MemoryBytes();
  }
  return total;
}

SweepGeometry BuildSweepGeometry(const raster::Viewport& vp,
                                 const data::RegionSet& regions,
                                 SweepMode mode, bool with_boundary) {
  SweepGeometry geometry;
  geometry.regions.resize(regions.size());
  const std::size_t num_pixels =
      static_cast<std::size_t>(vp.width()) * vp.height();
  StampBuffer stamp(with_boundary ? num_pixels : 0);

  for (std::size_t r = 0; r < regions.size(); ++r) {
    RegionSpanCache& cache = geometry.regions[r];
    cache.span_part_offsets.push_back(0);
    cache.boundary_part_offsets.push_back(0);
    raster::TileCoverage tiles(vp.width(), vp.height());

    // Bounded mode dedups boundary pixels once per region (the error-bound
    // loop's scope); accurate mode opens a fresh scope per part below.
    if (with_boundary && mode == SweepMode::kBounded) {
      stamp.NextScope();
    }

    for (const geometry::Polygon& part : regions[r].geometry.parts()) {
      if (with_boundary) {
        if (mode == SweepMode::kAccurate) {
          stamp.NextScope();
        }
        raster::RasterizePolygonBoundary(vp, part, [&](int x, int y) {
          const std::size_t idx =
              static_cast<std::size_t>(y) * vp.width() + x;
          if (stamp.MarkOnce(idx)) {
            cache.boundary.push_back(static_cast<std::uint32_t>(idx));
          }
        });
      }

      raster::ScanlineFillPolygon(vp, part, [&](int y, int x_begin,
                                                int x_end) {
        if (x_begin >= x_end) return;
        cache.pixels += static_cast<std::uint64_t>(x_end - x_begin);
        tiles.AddSpan(y, x_begin, x_end);
        if (mode == SweepMode::kAccurate && with_boundary) {
          // Cut this part's boundary pixels out of the span so the sweep
          // never re-checks them (they are resolved exactly instead).
          const std::size_t row_base =
              static_cast<std::size_t>(y) * vp.width();
          int run = x_begin;
          for (int x = x_begin; x < x_end; ++x) {
            if (stamp.Marked(row_base + x)) {
              if (run < x) cache.spans.push_back({y, run, x});
              run = x + 1;
            }
          }
          if (run < x_end) cache.spans.push_back({y, run, x_end});
        } else {
          cache.spans.push_back({y, x_begin, x_end});
        }
      });

      cache.span_part_offsets.push_back(
          static_cast<std::uint32_t>(cache.spans.size()));
      cache.boundary_part_offsets.push_back(
          static_cast<std::uint32_t>(cache.boundary.size()));
    }
    cache.tiles = static_cast<std::uint32_t>(tiles.count());
    cache.spans.shrink_to_fit();
    cache.boundary.shrink_to_fit();
  }

  if (mode == SweepMode::kAccurate && with_boundary) {
    const auto width = static_cast<std::uint32_t>(vp.width());
    for (const RegionSpanCache& cache : geometry.regions) {
      for (const std::uint32_t pixel : cache.boundary) {
        geometry.boundary_slots.push_back(
            raster::MortonPixelKey(pixel % width, pixel / width));
      }
    }
    std::vector<std::uint32_t>& keys = geometry.boundary_keys;
    keys = geometry.boundary_slots;
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    keys.shrink_to_fit();
    for (std::uint32_t& slot : geometry.boundary_slots) {
      slot = static_cast<std::uint32_t>(
          std::lower_bound(keys.begin(), keys.end(), slot) - keys.begin());
    }
  }
  return geometry;
}

}  // namespace urbane::core::internal
