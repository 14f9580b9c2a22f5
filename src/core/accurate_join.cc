#include "core/accurate_join.h"

#include <algorithm>

#include "core/observe.h"
#include "core/raster_targets.h"
#include "raster/rasterizer.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace urbane::core {

StatusOr<std::unique_ptr<AccurateRasterJoin>> AccurateRasterJoin::Create(
    const data::PointTable& points, const data::RegionSet& regions,
    const RasterJoinOptions& options) {
  URBANE_ASSIGN_OR_RETURN(raster::Viewport viewport,
                          MakeValidatedCanvas(points, regions, options));
  auto executor = std::unique_ptr<AccurateRasterJoin>(new AccurateRasterJoin(
      points, regions, options, viewport));
  executor->morton_ = raster::MortonSplatOrder::Build(
      viewport, points.xs(), points.ys(), points.size());
  if (!executor->morton_.enabled()) {
    return Status::InvalidArgument(StringPrintf(
        "accurate raster join canvas %dx%d exceeds 65535 pixels a side",
        viewport.width(), viewport.height()));
  }
  executor->sweep_ = internal::BuildSweepGeometry(
      viewport, regions, internal::SweepMode::kAccurate,
      /*with_boundary=*/true);
  executor->LocateBoundaryRuns();
  return executor;
}

void AccurateRasterJoin::LocateBoundaryRuns() {
  // The Morton key is pixel-granular and its sort stable, so one pixel's
  // points form one contiguous run of morton_, in row order. List the runs
  // by Z-order key (ascending along the order; off-canvas points carry no
  // pixel and sort last), then look up each boundary pixel's key.
  const std::size_t n = morton_.size();
  std::vector<std::uint32_t> pixels(n);
  raster::ComputeSplatIndices(viewport_, morton_.xs().data(),
                              morton_.ys().data(), n, pixels.data());
  const auto width = static_cast<std::uint32_t>(viewport_.width());
  const auto key_of = [width](std::uint32_t pixel) {
    return raster::MortonPixelKey(pixel % width, pixel / width);
  };
  std::vector<std::uint32_t> run_keys;
  std::vector<std::uint32_t> run_begins;
  std::uint32_t k = 0;
  for (; k < n && pixels[k] != raster::kInvalidPixel; ++k) {
    if (k == 0 || pixels[k] != pixels[k - 1]) {
      run_keys.push_back(key_of(pixels[k]));
      run_begins.push_back(k);
    }
  }
  run_begins.push_back(k);

  std::size_t boundary_pixels = 0;
  for (const internal::RegionSpanCache& cache : sweep_.regions) {
    boundary_pixels += cache.boundary.size();
  }
  boundary_runs_.reserve(boundary_pixels);
  for (const internal::RegionSpanCache& cache : sweep_.regions) {
    for (const std::uint32_t pixel : cache.boundary) {
      const std::uint32_t key = key_of(pixel);
      const auto it = std::lower_bound(run_keys.begin(), run_keys.end(), key);
      MortonRun run;
      if (it != run_keys.end() && *it == key) {
        const std::size_t r = static_cast<std::size_t>(it - run_keys.begin());
        run = {run_begins[r], run_begins[r + 1]};
      }
      boundary_runs_.push_back(run);
    }
  }
}

StatusOr<PartialResult> AccurateRasterJoin::ExecutePartial(
    const AggregationQuery& query) const {
  URBANE_RETURN_IF_ERROR(query.Validate());
  if (query.points != &points_ || query.regions != &regions_) {
    return Status::FailedPrecondition(
        "AccurateRasterJoin was created for a different table/region set");
  }
  obs::ProfilePassCosts costs;
  WallTimer timer;

  WallTimer filter_timer;
  URBANE_ASSIGN_OR_RETURN(
      FilterSelection selection,
      EvaluateFilter(query.filter, points_, query.candidate_ranges));
  costs.filter_seconds = filter_timer.ElapsedSeconds();
  URBANE_RETURN_IF_ERROR(query.CheckControl());
  const float* attr = nullptr;
  if (query.aggregate.NeedsAttribute()) {
    attr = points_.AttributeByName(query.aggregate.attribute);
  }
  WallTimer splat_timer;
  const internal::SplatSchedule schedule =
      internal::BuildSplatSchedule(viewport_, points_, selection, &morton_);
  const internal::TargetPool::Lease lease = targets_.Acquire();
  internal::AggregateTargets& targets = *lease;
  internal::BuildAggregateTargets(viewport_, schedule, attr,
                                  query.aggregate.kind,
                                  /*need_abs_sum=*/false, targets);
  costs.splat_seconds = splat_timer.ElapsedSeconds();
  URBANE_RETURN_IF_ERROR(query.CheckControl());
  costs.points_scanned = selection.ids.size();

  // Pass 2: each region part's cached boundary pixels are refined exactly
  // (in cached emission order) and its cached interior spans — boundary
  // already cut out at Create — reduce wholesale through the SIMD span
  // kernels. Both walks follow the order of the uncached loops they
  // replace, so results are bit-identical.
  WallTimer sweep_timer;
  const std::size_t num_regions = regions_.size();
  PartialResult result;
  result.regions.resize(num_regions);

  const raster::RasterKernels& kernels = raster::ActiveKernels();
  // Refine time (the exact boundary-pixel tests interleaved with the sweep)
  // is only clocked when someone is observing — metrics on or a profile
  // attached: the extra clock reads sit inside the per-region loop, and
  // the disabled fast path must stay free.
  const bool measure_refine =
      obs::MetricsEnabled() || query.profile != nullptr;
  std::vector<std::uint32_t> scratch(
      static_cast<std::size_t>(viewport_.width()));
  const std::vector<std::uint32_t>& morton_ids = morton_.ids();
  const std::vector<float>& morton_xs = morton_.xs();
  const std::vector<float>& morton_ys = morton_.ys();
  const MortonRun* region_runs = boundary_runs_.data();
  WallTimer refine_timer;
  for (std::size_t r = 0; r < num_regions; ++r) {
    const internal::RegionSpanCache& cache = sweep_.regions[r];
    const auto& parts = regions_[r].geometry.parts();
    Accumulator& acc = result.regions[r];
    for (std::size_t p = 0; p < parts.size(); ++p) {
      const geometry::Polygon& region_part = parts[p];

      // --- boundary pixels: exact tests against this part ---
      const std::uint32_t b_begin = cache.boundary_part_offsets[p];
      const std::uint32_t b_end = cache.boundary_part_offsets[p + 1];
      costs.boundary_pixels += b_end - b_begin;
      if (measure_refine) {
        refine_timer.Restart();
      }
      for (std::uint32_t b = b_begin; b < b_end; ++b) {
        const MortonRun run = region_runs[b];
        for (std::uint32_t k = run.begin; k < run.end; ++k) {
          const std::uint32_t id = morton_ids[k];
          if (!selection.bitmap[id]) {
            continue;
          }
          ++costs.pip_tests;
          const geometry::Vec2 pt{morton_xs[k], morton_ys[k]};
          if (region_part.Contains(pt)) {
            acc.Add(attr ? static_cast<double>(attr[id]) : 1.0);
          }
        }
      }
      if (measure_refine) {
        costs.refine_seconds += refine_timer.ElapsedSeconds();
      }

      // --- interior pixels: wholesale raster reduction over the cached
      //     boundary-free spans ---
      const std::uint32_t s_begin = cache.span_part_offsets[p];
      const std::uint32_t s_end = cache.span_part_offsets[p + 1];
      for (std::uint32_t s = s_begin; s < s_end; ++s) {
        const raster::PixelSpan& span = cache.spans[s];
        costs.simd_fragments +=
            static_cast<std::size_t>(span.x_end - span.x_begin);
        costs.points_bulk += internal::AccumulateSpan(targets, kernels, span,
                                                      acc, scratch.data());
      }
    }
    costs.pixels_touched += cache.pixels;
    costs.tiles_visited += cache.tiles;
    region_runs += cache.boundary.size();
  }
  costs.sweep_seconds = sweep_timer.ElapsedSeconds();
  costs.query_seconds = timer.ElapsedSeconds();
  PublishExecution(*this, "accurate", 1, costs, query.profile);
  return result;
}

std::size_t AccurateRasterJoin::MemoryBytes() const {
  return morton_.MemoryBytes() + sweep_.MemoryBytes() +
         boundary_runs_.capacity() * sizeof(MortonRun);
}

}  // namespace urbane::core
