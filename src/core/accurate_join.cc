#include "core/accurate_join.h"

#include <vector>

#include "core/observe.h"
#include "core/raster_targets.h"
#include "raster/rasterizer.h"
#include "util/timer.h"

namespace urbane::core {

StatusOr<std::unique_ptr<AccurateRasterJoin>> AccurateRasterJoin::Create(
    const data::PointTable& points, const data::RegionSet& regions,
    const RasterJoinOptions& options) {
  URBANE_ASSIGN_OR_RETURN(raster::Viewport viewport,
                          MakeValidatedCanvas(regions, options.resolution));
  URBANE_ASSIGN_OR_RETURN(std::shared_ptr<const RasterRegionState> region,
                          BuildRegionState(regions, viewport));
  RasterSources sources{RasterPointSource::Build(*region, points)};
  return std::make_unique<AccurateRasterJoin>(
      points, regions, std::move(region), std::move(sources));
}

StatusOr<std::shared_ptr<const RasterRegionState>>
AccurateRasterJoin::BuildRegionState(const data::RegionSet& regions,
                                     const raster::Viewport& canvas) {
  return RasterRegionState::Build(regions, canvas,
                                  internal::SweepMode::kAccurate,
                                  /*with_boundary=*/true);
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

  const internal::TargetPool::Lease lease = region_->targets.Acquire();
  internal::AggregateTargets& targets = *lease;
  URBANE_ASSIGN_OR_RETURN(
      const std::vector<internal::SourcePass> passes,
      internal::FilterAndSplat(*region_, sources_, query,
                               /*need_abs_sum=*/false, targets, costs));

  // Pass 2: each region part's cached boundary pixels are refined exactly
  // (in cached emission order) and its cached interior spans — boundary
  // already cut out by the region state — reduce wholesale through the
  // SIMD span kernels. Both walks follow the order of the uncached loops
  // they replace, so results are bit-identical.
  WallTimer sweep_timer;
  const internal::SweepGeometry& sweep = region_->sweep;
  const std::size_t num_regions = regions_.size();
  PartialResult result;
  result.regions.resize(num_regions);

  // The sources the refine walks: those with a selected row, in source
  // order. `runs` is indexed by boundary key slot.
  struct RefineSource {
    const MortonRun* runs;
    const std::uint32_t* ids;
    const float* xs;
    const float* ys;
    const std::uint8_t* bitmap;
    const float* attr;
  };
  std::vector<RefineSource> refine_sources;
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    if (passes[s].selection.ids.empty()) continue;
    const RasterPointSource& source = *sources_[s];
    refine_sources.push_back(
        {source.boundary_runs.data(), source.morton.ids().data(),
         source.morton.xs().data(), source.morton.ys().data(),
         passes[s].selection.bitmap.data(), passes[s].attr});
  }

  const raster::RasterKernels& kernels = raster::ActiveKernels();
  // Refine time (the exact boundary-pixel tests interleaved with the sweep)
  // is only clocked when someone is observing — metrics on or a profile
  // attached: the extra clock reads sit inside the per-region loop, and
  // the disabled fast path must stay free.
  const bool measure_refine =
      obs::MetricsEnabled() || query.profile != nullptr;
  std::vector<std::uint32_t> scratch(
      static_cast<std::size_t>(region_->viewport.width()));
  const std::uint32_t* count_data = targets.count.data().data();
  const std::uint32_t* region_slots = sweep.boundary_slots.data();
  WallTimer refine_timer;
  for (std::size_t r = 0; r < num_regions; ++r) {
    const internal::RegionSpanCache& cache = sweep.regions[r];
    const auto& parts = regions_[r].geometry.parts();
    Accumulator& acc = result.regions[r];
    for (std::size_t p = 0; p < parts.size(); ++p) {
      const geometry::Polygon& region_part = parts[p];

      // --- boundary pixels: exact tests against this part. A pixel no
      //     selected point hit holds nothing to test in any source. ---
      const std::uint32_t b_begin = cache.boundary_part_offsets[p];
      const std::uint32_t b_end = cache.boundary_part_offsets[p + 1];
      costs.boundary_pixels += b_end - b_begin;
      if (measure_refine) {
        refine_timer.Restart();
      }
      for (std::uint32_t b = b_begin; b < b_end; ++b) {
        if (count_data[cache.boundary[b]] == 0) {
          continue;
        }
        const std::uint32_t slot = region_slots[b];
        for (const RefineSource& source : refine_sources) {
          const MortonRun run = source.runs[slot];
          costs.refine_rows += run.end - run.begin;
          for (std::uint32_t k = run.begin; k < run.end; ++k) {
            const std::uint32_t id = source.ids[k];
            if (!source.bitmap[id]) {
              continue;
            }
            ++costs.pip_tests;
            const geometry::Vec2 pt{source.xs[k], source.ys[k]};
            if (region_part.Contains(pt)) {
              acc.Add(source.attr ? static_cast<double>(source.attr[id])
                                  : 1.0);
            }
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
    region_slots += cache.boundary.size();
  }
  costs.sweep_seconds = sweep_timer.ElapsedSeconds();
  costs.query_seconds = timer.ElapsedSeconds();
  PublishExecution(*this, "accurate", 1, costs, query.profile);
  return result;
}

std::size_t AccurateRasterJoin::MemoryBytes() const {
  std::size_t total = region_->MemoryBytes();
  for (const std::shared_ptr<const RasterPointSource>& source : sources_) {
    total += source->MemoryBytes();
  }
  return total;
}

}  // namespace urbane::core
