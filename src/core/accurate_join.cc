#include "core/accurate_join.h"

#include "core/observe.h"
#include "core/raster_targets.h"
#include "raster/rasterizer.h"
#include "util/timer.h"

namespace urbane::core {

StatusOr<std::unique_ptr<AccurateRasterJoin>> AccurateRasterJoin::Create(
    const data::PointTable& points, const data::RegionSet& regions,
    const RasterJoinOptions& options) {
  URBANE_ASSIGN_OR_RETURN(raster::Viewport viewport,
                          MakeValidatedCanvas(points, regions, options));
  auto executor = std::unique_ptr<AccurateRasterJoin>(new AccurateRasterJoin(
      points, regions, options, viewport));
  executor->BuildPixelIndex();
  executor->morton_ = raster::MortonSplatOrder::Build(
      viewport, points.xs(), points.ys(), points.size());
  executor->sweep_ = internal::BuildSweepGeometry(
      viewport, regions, internal::SweepMode::kAccurate,
      /*with_boundary=*/true, /*triangle_pipeline=*/false);
  return executor;
}

void AccurateRasterJoin::BuildPixelIndex() {
  const std::size_t num_pixels =
      static_cast<std::size_t>(viewport_.width()) * viewport_.height();
  const std::size_t n = points_.size();
  // Pixel per point through the SIMD kernels (bit-identical to
  // PixelForPoint at every level; kInvalidPixel marks points off canvas).
  std::vector<std::uint32_t> pixel_of_point(n);
  raster::ComputeSplatIndices(viewport_, points_.xs(), points_.ys(), n,
                              pixel_of_point.data());
  std::vector<std::uint32_t> counts(num_pixels, 0);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (pixel_of_point[i] == raster::kInvalidPixel) continue;
    ++counts[pixel_of_point[i]];
    ++kept;
  }
  pixel_offsets_.assign(num_pixels + 1, 0);
  for (std::size_t p = 0; p < num_pixels; ++p) {
    pixel_offsets_[p + 1] = pixel_offsets_[p] + counts[p];
  }
  pixel_points_.resize(kept);
  std::vector<std::uint32_t> cursor(pixel_offsets_.begin(),
                                    pixel_offsets_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (pixel_of_point[i] == raster::kInvalidPixel) continue;
    pixel_points_[cursor[pixel_of_point[i]]++] =
        static_cast<std::uint32_t>(i);
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
                                  options_.use_float32_targets,
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
        const std::uint32_t pixel = cache.boundary[b];
        const std::uint32_t pt_begin = pixel_offsets_[pixel];
        const std::uint32_t pt_end = pixel_offsets_[pixel + 1];
        for (std::uint32_t k = pt_begin; k < pt_end; ++k) {
          const std::uint32_t id = pixel_points_[k];
          if (!selection.bitmap[id]) {
            continue;
          }
          ++costs.pip_tests;
          const geometry::Vec2 pt{points_.x(id), points_.y(id)};
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
  }
  costs.sweep_seconds = sweep_timer.ElapsedSeconds();
  costs.query_seconds = timer.ElapsedSeconds();
  PublishExecution(*this, "accurate", 1, costs, query.profile);
  return result;
}

std::size_t AccurateRasterJoin::MemoryBytes() const {
  return pixel_offsets_.capacity() * sizeof(std::uint32_t) +
         pixel_points_.capacity() * sizeof(std::uint32_t) +
         morton_.MemoryBytes() + sweep_.MemoryBytes();
}

}  // namespace urbane::core
