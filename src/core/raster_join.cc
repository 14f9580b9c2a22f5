#include "core/raster_join.h"

#include <algorithm>
#include <cmath>

#include "core/observe.h"
#include "core/raster_targets.h"
#include "raster/rasterizer.h"
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

geometry::BoundingBox PadCanvasWorld(geometry::BoundingBox world) {
  if (world.IsEmpty()) {
    world = geometry::BoundingBox(0, 0, 1, 1);
  }
  // Pad so points sitting exactly on the max edge stay inside after
  // float32 -> double round trips.
  const double pad =
      1e-9 * std::max({1.0, std::fabs(world.max_x), std::fabs(world.max_y)});
  return world.Expanded(std::max(pad, 1e-7 * std::max(1.0, world.Width())));
}

namespace {

geometry::BoundingBox ComputeCanvasWorld(const data::PointTable& points,
                                         const data::RegionSet& regions) {
  geometry::BoundingBox world = points.Bounds();
  world.Extend(regions.Bounds());
  return PadCanvasWorld(world);
}

}  // namespace

StatusOr<raster::Viewport> MakeValidatedCanvas(
    const data::PointTable& points, const data::RegionSet& regions,
    const RasterJoinOptions& options) {
  if (options.resolution <= 0) {
    return Status::InvalidArgument("canvas resolution must be positive");
  }
  const geometry::BoundingBox world =
      options.world.value_or(ComputeCanvasWorld(points, regions));
  const geometry::BoundingBox point_bounds = points.Bounds();
  const geometry::BoundingBox region_bounds = regions.Bounds();
  if ((!point_bounds.IsEmpty() && !world.Contains(point_bounds)) ||
      (!region_bounds.IsEmpty() && !world.Contains(region_bounds))) {
    return Status::InvalidArgument(
        "canvas world window must cover all points and regions");
  }
  return MakeCanvas(world, options.resolution);
}

StatusOr<std::unique_ptr<BoundedRasterJoin>> BoundedRasterJoin::Create(
    const data::PointTable& points, const data::RegionSet& regions,
    const RasterJoinOptions& options) {
  URBANE_ASSIGN_OR_RETURN(raster::Viewport viewport,
                          MakeValidatedCanvas(points, regions, options));
  auto executor = std::unique_ptr<BoundedRasterJoin>(
      new BoundedRasterJoin(points, regions, options, viewport));
  executor->morton_ = raster::MortonSplatOrder::Build(
      viewport, points.xs(), points.ys(), points.size());
  executor->sweep_ = internal::BuildSweepGeometry(
      viewport, regions, internal::SweepMode::kBounded,
      /*with_boundary=*/options.compute_error_bounds);
  return executor;
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

  // --- filter + pass 1: splat the surviving points onto the canvas (pixel
  //     indices computed once, SIMD, and shared by every render target) ---
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
  // abs-sum targets only bound SUM's error; COUNT/AVG/MIN/MAX report the
  // boundary point count (see QueryResult::error_bounds docs).
  WallTimer splat_timer;
  const internal::SplatSchedule schedule =
      internal::BuildSplatSchedule(viewport_, points_, selection, &morton_);
  const internal::TargetPool::Lease lease = targets_.Acquire();
  internal::AggregateTargets& targets = *lease;
  internal::BuildAggregateTargets(
      viewport_, schedule, attr, query.aggregate.kind,
      /*need_abs_sum=*/options_.compute_error_bounds &&
          query.aggregate.kind == AggregateKind::kSum,
      targets);
  costs.splat_seconds = splat_timer.ElapsedSeconds();
  URBANE_RETURN_IF_ERROR(query.CheckControl());
  costs.points_scanned = selection.ids.size();

  // --- pass 2: sweep the cached region spans; spans are walked in the
  //     exact order the scan converter emitted them, so results match the
  //     uncached sweep bit for bit ---
  WallTimer sweep_timer;
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
      static_cast<std::size_t>(viewport_.width()));
  for (std::size_t r = 0; r < num_regions; ++r) {
    const internal::RegionSpanCache& cache = sweep_.regions[r];
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
  // query-independent caches: the Morton splat order and the per-region
  // sweep spans. Render targets and the sweep scratch remain per-query.
  return morton_.MemoryBytes() + sweep_.MemoryBytes();
}

}  // namespace urbane::core
