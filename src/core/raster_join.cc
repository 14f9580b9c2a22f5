#include "core/raster_join.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/observe.h"
#include "core/raster_targets.h"
#include "raster/point_splat.h"
#include "raster/rasterizer.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace urbane::core {

raster::Viewport MakeCanvas(const geometry::BoundingBox& world,
                            int resolution) {
  if (world.Width() >= world.Height()) {
    const int height = std::max(
        1, static_cast<int>(std::lround(resolution * world.Height() /
                                        world.Width())));
    return raster::Viewport(world, resolution, height);
  }
  const int width = std::max(
      1,
      static_cast<int>(std::lround(resolution * world.Width() /
                                   world.Height())));
  return raster::Viewport(world, width, resolution);
}

int ResolutionForEpsilon(const geometry::BoundingBox& world,
                         double epsilon_world) {
  // Pixel diagonal of a square-pixel canvas at resolution R along the longer
  // side L: diag = sqrt(2) * L / R. Solve diag <= eps for R.
  const double longer = std::max(world.Width(), world.Height());
  const double r = std::sqrt(2.0) * longer / epsilon_world;
  return std::max(1, static_cast<int>(std::ceil(r)));
}

geometry::BoundingBox CanvasWorld(const data::RegionSet& regions) {
  geometry::BoundingBox world = regions.Bounds();
  if (world.IsEmpty()) {
    world = geometry::BoundingBox(0, 0, 1, 1);
  }
  const double pad =
      1e-9 * std::max({1.0, std::fabs(world.max_x), std::fabs(world.max_y)});
  return world.Expanded(std::max(pad, 1e-7 * std::max(1.0, world.Width())));
}

StatusOr<raster::Viewport> MakeValidatedCanvas(const data::RegionSet& regions,
                                               int resolution) {
  if (resolution <= 0) {
    return Status::InvalidArgument("canvas resolution must be positive");
  }
  return MakeCanvas(CanvasWorld(regions), resolution);
}

StatusOr<std::shared_ptr<const RasterRegionState>> RasterRegionState::Build(
    const data::RegionSet& regions, const raster::Viewport& canvas,
    internal::SweepMode mode, bool with_boundary) {
  if (mode == internal::SweepMode::kAccurate &&
      (canvas.width() > 0xFFFF || canvas.height() > 0xFFFF)) {
    return Status::InvalidArgument(StringPrintf(
        "accurate raster join canvas %dx%d exceeds 65535 pixels a side",
        canvas.width(), canvas.height()));
  }
  auto state = std::make_shared<RasterRegionState>(canvas);
  state->sweep =
      internal::BuildSweepGeometry(canvas, regions, mode, with_boundary);
  return std::shared_ptr<const RasterRegionState>(std::move(state));
}

namespace {

// First position of `key` or above in the ascending keys[from, end),
// galloping out from `from`: O(log distance), so a source's ascending runs
// merge against the keys in O(runs * log(keys / runs)).
std::size_t GallopLowerBound(const std::vector<std::uint32_t>& keys,
                             std::size_t from, std::uint32_t key) {
  std::size_t lo = from;
  std::size_t hi = from;
  for (std::size_t step = 1; hi < keys.size() && keys[hi] < key; step *= 2) {
    lo = hi + 1;
    hi = from + step;
  }
  hi = std::min(hi, keys.size());
  return static_cast<std::size_t>(
      std::lower_bound(keys.begin() + static_cast<std::ptrdiff_t>(lo),
                       keys.begin() + static_cast<std::ptrdiff_t>(hi), key) -
      keys.begin());
}

}  // namespace

std::shared_ptr<const RasterPointSource> RasterPointSource::Build(
    const RasterRegionState& region, const data::PointTable& points) {
  const raster::Viewport& canvas = region.viewport;
  auto source = std::make_shared<RasterPointSource>();
  source->table = &points;
  source->morton = raster::MortonSplatOrder::Build(canvas, points.xs(),
                                                   points.ys(), points.size());
  const std::vector<std::uint32_t>& keys = region.sweep.boundary_keys;
  if (keys.empty()) {  // bounded mode, or no boundary pixel to refine
    return source;
  }
  // The Morton key is pixel-granular and its sort stable, so one pixel's
  // points form one contiguous run of the order, in row order, and the
  // runs ascend by key (off-canvas points carry no pixel and sort last).
  // Merge them against the region state's sorted boundary keys.
  const raster::MortonSplatOrder& morton = source->morton;
  const std::size_t n = morton.size();
  std::vector<std::uint32_t> pixels(n);
  raster::ComputeSplatIndices(canvas, morton.xs().data(), morton.ys().data(),
                              n, pixels.data());
  source->boundary_runs.resize(keys.size());
  const auto width = static_cast<std::uint32_t>(canvas.width());
  std::size_t slot = 0;
  for (std::uint32_t k = 0; k < n && pixels[k] != raster::kInvalidPixel;) {
    const std::uint32_t pixel = pixels[k];
    std::uint32_t end = k + 1;
    while (end < n && pixels[end] == pixel) ++end;
    const std::uint32_t key =
        raster::MortonPixelKey(pixel % width, pixel / width);
    slot = GallopLowerBound(keys, slot, key);
    if (slot == keys.size()) break;
    if (keys[slot] == key) {
      source->boundary_runs[slot] = {k, end};
    }
    k = end;
  }
  return source;
}

namespace internal {

StatusOr<std::vector<SourcePass>> FilterAndSplat(
    const RasterRegionState& region, const RasterSources& sources,
    const AggregationQuery& query, bool need_abs_sum,
    AggregateTargets& targets, obs::ProfilePassCosts& costs) {
  // --- filter: each source over its slice of the candidate rows ---
  WallTimer filter_timer;
  std::vector<SourcePass> passes(sources.size());
  std::uint64_t first = 0;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const data::PointTable& table = *sources[s]->table;
    const std::uint64_t end = first + table.size();
    std::optional<RowRangeSet> slice;
    if (query.candidate_ranges != nullptr) {
      slice = SliceRowRanges(*query.candidate_ranges, first, end);
    }
    first = end;
    if (slice.has_value() && slice->empty()) continue;
    URBANE_ASSIGN_OR_RETURN(
        passes[s].selection,
        EvaluateFilter(query.filter, table, slice ? &*slice : nullptr));
    if (query.aggregate.NeedsAttribute()) {
      passes[s].attr = table.AttributeByName(query.aggregate.attribute);
    }
    costs.points_scanned += passes[s].selection.ids.size();
  }
  costs.filter_seconds += filter_timer.ElapsedSeconds();
  URBANE_RETURN_IF_ERROR(query.CheckControl());

  // --- pass 1: splat every source onto the one canvas (pixel indices
  //     computed once per source, SIMD, and shared by every target) ---
  WallTimer splat_timer;
  PrepareAggregateTargets(region.viewport, query.aggregate.kind,
                          need_abs_sum, targets);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    if (passes[s].selection.ids.empty()) continue;
    const SplatSchedule schedule =
        BuildSplatSchedule(region.viewport, *sources[s]->table,
                           passes[s].selection, &sources[s]->morton);
    ScatterSchedule(targets, schedule, passes[s].attr);
  }
  costs.splat_seconds += splat_timer.ElapsedSeconds();
  URBANE_RETURN_IF_ERROR(query.CheckControl());
  return passes;
}

}  // namespace internal

StatusOr<std::unique_ptr<BoundedRasterJoin>> BoundedRasterJoin::Create(
    const data::PointTable& points, const data::RegionSet& regions,
    const RasterJoinOptions& options) {
  URBANE_ASSIGN_OR_RETURN(raster::Viewport viewport,
                          MakeValidatedCanvas(regions, options.resolution));
  URBANE_ASSIGN_OR_RETURN(std::shared_ptr<const RasterRegionState> region,
                          BuildRegionState(regions, viewport, options));
  RasterSources sources{RasterPointSource::Build(*region, points)};
  return std::make_unique<BoundedRasterJoin>(
      points, regions, options, std::move(region), std::move(sources));
}

StatusOr<std::shared_ptr<const RasterRegionState>>
BoundedRasterJoin::BuildRegionState(const data::RegionSet& regions,
                                    const raster::Viewport& canvas,
                                    const RasterJoinOptions& options) {
  return RasterRegionState::Build(
      regions, canvas, internal::SweepMode::kBounded,
      /*with_boundary=*/options.compute_error_bounds);
}

StatusOr<PartialResult> BoundedRasterJoin::ExecutePartial(
    const AggregationQuery& query) const {
  URBANE_RETURN_IF_ERROR(query.Validate());
  if (query.points != &points_ || query.regions != &regions_) {
    return Status::FailedPrecondition(
        "BoundedRasterJoin was created for a different table/region set");
  }
  obs::ProfilePassCosts costs;
  WallTimer timer;

  // --- filter + pass 1 into the query's one leased target set. abs-sum
  //     targets only bound SUM's error; COUNT/AVG/MIN/MAX report the
  //     boundary point count (see QueryResult::error_bounds docs). ---
  const internal::TargetPool::Lease lease = region_->targets.Acquire();
  internal::AggregateTargets& targets = *lease;
  URBANE_RETURN_IF_ERROR(
      internal::FilterAndSplat(
          *region_, sources_, query,
          /*need_abs_sum=*/options_.compute_error_bounds &&
              query.aggregate.kind == AggregateKind::kSum,
          targets, costs)
          .status());

  // --- pass 2: sweep the cached region spans; spans are walked in the
  //     exact order the scan converter emitted them, so results match the
  //     uncached sweep bit for bit ---
  WallTimer sweep_timer;
  const raster::Viewport& viewport = region_->viewport;
  const internal::SweepGeometry& sweep = region_->sweep;
  const std::size_t num_regions = regions_.size();
  PartialResult result;
  result.regions.resize(num_regions);
  if (options_.compute_error_bounds) {
    result.error_bounds.assign(num_regions, 0.0);
  }

  const bool sum_bound = targets.need_abs_sum;
  const raster::RasterKernels& kernels = raster::ActiveKernels();
  const std::uint32_t* count_data = targets.count.data().data();
  const double* abs_data =
      sum_bound ? targets.abs_sum.data().data() : nullptr;
  std::vector<std::uint32_t> scratch(
      static_cast<std::size_t>(viewport.width()));
  for (std::size_t r = 0; r < num_regions; ++r) {
    const internal::RegionSpanCache& cache = sweep.regions[r];
    Accumulator& acc = result.regions[r];
    for (const raster::PixelSpan& span : cache.spans) {
      costs.simd_fragments +=
          static_cast<std::size_t>(span.x_end - span.x_begin);
      internal::AccumulateSpan(targets, kernels, span, acc, scratch.data());
    }
    costs.pixels_touched += cache.pixels;
    costs.tiles_visited += cache.tiles;

    if (options_.compute_error_bounds) {
      // Error is confined to pixels the region boundary passes through;
      // bound it by the aggregate mass sitting in those pixels. Pixels no
      // point hit carry no mass — the count gate also keeps the read off
      // abs_sum's first-touch-initialized (possibly stale) cells.
      double bound = 0.0;
      for (const std::uint32_t idx : cache.boundary) {
        const std::uint32_t c = count_data[idx];
        if (c == 0) continue;
        bound += sum_bound ? abs_data[idx] : static_cast<double>(c);
      }
      costs.boundary_pixels += cache.boundary.size();
      result.error_bounds[r] = bound;
    }
  }
  costs.sweep_seconds = sweep_timer.ElapsedSeconds();
  costs.query_seconds = timer.ElapsedSeconds();
  PublishExecution(*this, "raster", 1, costs, query.profile);
  return result;
}

std::size_t BoundedRasterJoin::MemoryBytes() const {
  // The paper's "no preprocessing" story (Table 2) now carries two small
  // query-independent caches: each source's Morton splat order and the
  // per-region sweep spans. Render targets and the sweep scratch remain
  // per-query.
  std::size_t total = region_->MemoryBytes();
  for (const std::shared_ptr<const RasterPointSource>& source : sources_) {
    total += source->MemoryBytes();
  }
  return total;
}

}  // namespace urbane::core
