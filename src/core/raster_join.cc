#include "core/raster_join.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

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
      /*with_boundary=*/options.compute_error_bounds,
      options.use_triangle_pipeline);
  return executor;
}

StatusOr<QueryResult> BoundedRasterJoin::Execute(
    const AggregationQuery& query) const {
  URBANE_RETURN_IF_ERROR(query.Validate());
  if (query.points != &points_ || query.regions != &regions_) {
    return Status::FailedPrecondition(
        "BoundedRasterJoin was created for a different table/region set");
  }
  const ExecutionContext& exec = options_.exec;
  obs::ProfilePassCosts costs;
  WallTimer timer;

  // --- filter + pass 1: splat the surviving points onto the canvas (pixel
  //     indices computed once, SIMD, and shared by every render target) ---
  WallTimer filter_timer;
  URBANE_ASSIGN_OR_RETURN(
      FilterSelection selection,
      EvaluateFilter(query.filter, points_, exec, query.candidate_ranges));
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
      options_.use_float32_targets,
      /*need_abs_sum=*/options_.compute_error_bounds &&
          query.aggregate.kind == AggregateKind::kSum,
      targets, exec.Splat());
  costs.splat_seconds = splat_timer.ElapsedSeconds();
  URBANE_RETURN_IF_ERROR(query.CheckControl());
  costs.points_scanned = selection.ids.size();

  // --- pass 2: sweep the cached region spans, one contiguous region range
  //     per worker; spans are walked in the exact order the scan converter
  //     emitted them, so results match the uncached serial sweep bit for
  //     bit ---
  WallTimer sweep_timer;
  const std::size_t num_regions = regions_.size();
  QueryResult result;
  result.values.assign(num_regions, 0.0);
  result.counts.assign(num_regions, 0);
  if (options_.compute_error_bounds) {
    result.error_bounds.assign(num_regions, 0.0);
  }

  const bool sum_bound = targets.need_abs_sum;
  const raster::RasterKernels& kernels = raster::ActiveKernels();
  const std::uint32_t* count_data = targets.count.data().data();
  const double* abs_data =
      sum_bound ? targets.abs_sum.data().data() : nullptr;
  std::vector<obs::ProfilePassCosts> worker_costs(exec.EffectiveThreads());
  ForEachPartition(exec, num_regions, [&](std::size_t part, std::size_t begin,
                                          std::size_t end) {
    obs::ProfilePassCosts& ws = worker_costs[part];
    std::vector<std::uint32_t> scratch(
        static_cast<std::size_t>(viewport_.width()));
    for (std::size_t r = begin; r < end; ++r) {
      const internal::RegionSpanCache& cache = sweep_.regions[r];
      Accumulator acc;
      for (const raster::PixelSpan& span : cache.spans) {
        ws.simd_fragments +=
            static_cast<std::size_t>(span.x_end - span.x_begin);
        internal::AccumulateSpan(targets, kernels, span, acc,
                                 scratch.data());
      }
      ws.pixels_touched += cache.pixels;
      ws.tiles_visited += cache.tiles;
      result.values[r] = acc.Finalize(query.aggregate.kind);
      result.counts[r] = acc.count;

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
        ws.boundary_pixels += cache.boundary.size();
        result.error_bounds[r] = bound;
      }
    }
  });
  for (const obs::ProfilePassCosts& ws : worker_costs) {
    costs.AddCounters(ws);
  }
  costs.sweep_seconds = sweep_timer.ElapsedSeconds();
  costs.query_seconds = timer.ElapsedSeconds();
  PublishExecution(*this, "raster", exec.EffectiveThreads(), costs,
                   query.profile);
  return result;
}

namespace {

bool FiltersEqual(const FilterSpec& a, const FilterSpec& b) {
  if (a.time_range.has_value() != b.time_range.has_value()) return false;
  if (a.time_range && (a.time_range->begin != b.time_range->begin ||
                       a.time_range->end != b.time_range->end)) {
    return false;
  }
  if (a.spatial_window.has_value() != b.spatial_window.has_value()) {
    return false;
  }
  if (a.spatial_window && !(*a.spatial_window == *b.spatial_window)) {
    return false;
  }
  if (a.attribute_ranges.size() != b.attribute_ranges.size()) return false;
  for (std::size_t i = 0; i < a.attribute_ranges.size(); ++i) {
    const AttributeRange& ra = a.attribute_ranges[i];
    const AttributeRange& rb = b.attribute_ranges[i];
    if (ra.attribute != rb.attribute || ra.lo != rb.lo || ra.hi != rb.hi) {
      return false;
    }
  }
  return true;
}

}  // namespace

StatusOr<std::vector<QueryResult>> BoundedRasterJoin::ExecuteBatch(
    const std::vector<AggregationQuery>& queries) const {
  if (queries.empty()) {
    return std::vector<QueryResult>();
  }
  for (const AggregationQuery& query : queries) {
    URBANE_RETURN_IF_ERROR(query.Validate());
    if (query.points != &points_ || query.regions != &regions_) {
      return Status::FailedPrecondition(
          "BoundedRasterJoin was created for a different table/region set");
    }
    if (!FiltersEqual(query.filter, queries.front().filter)) {
      return Status::InvalidArgument(
          "batched queries must share one filter (the splat pass is shared)");
    }
  }
  const ExecutionContext& exec = options_.exec;
  const raster::SplatParallelism splat_par = exec.Splat();
  obs::ProfilePassCosts costs;
  WallTimer timer;

  WallTimer filter_timer;
  URBANE_ASSIGN_OR_RETURN(
      FilterSelection selection,
      EvaluateFilter(queries.front().filter, points_, exec,
                     queries.front().candidate_ranges));
  costs.filter_seconds = filter_timer.ElapsedSeconds();
  URBANE_RETURN_IF_ERROR(queries.front().CheckControl());
  costs.points_scanned = selection.ids.size();

  // --- shared pass 1: the pixel indices are computed once for the whole
  //     batch; one count splat + one sum / min-max splat per distinct
  //     attribute the batch touches ---
  WallTimer splat_timer;
  const internal::SplatSchedule schedule =
      internal::BuildSplatSchedule(viewport_, points_, selection, &morton_);
  raster::Buffer2D<std::uint32_t> count(viewport_.width(),
                                        viewport_.height(), 0);
  raster::ParallelSplatIndexed(
      splat_par, viewport_, schedule.indices.data(), schedule.size(),
      raster::BlendOp::kAdd, [](std::size_t) { return 1u; }, count);

  struct AttrTargets {
    raster::Buffer2D<double> sum;
    raster::Buffer2D<double> abs_sum;
    raster::Buffer2D<float> min_value;
    raster::Buffer2D<float> max_value;
    bool has_sum = false;
    bool has_abs = false;
    bool has_minmax = false;
  };
  std::map<std::string, AttrTargets> per_attr;
  for (const AggregationQuery& query : queries) {
    if (!query.aggregate.NeedsAttribute()) continue;
    const std::string& name = query.aggregate.attribute;
    AttrTargets& targets = per_attr[name];
    const float* column = points_.AttributeByName(name);
    const bool needs_sum = query.aggregate.kind == AggregateKind::kSum ||
                           query.aggregate.kind == AggregateKind::kAvg;
    if (needs_sum && !targets.has_sum) {
      targets.has_sum = true;
      targets.sum =
          raster::Buffer2D<double>(viewport_.width(), viewport_.height(), 0);
      raster::ParallelSplatIndexed(
          splat_par, viewport_, schedule.indices.data(), schedule.size(),
          raster::BlendOp::kAdd,
          [&](std::size_t k) {
            return static_cast<double>(column[schedule.ids[k]]);
          },
          targets.sum);
    }
    if (needs_sum && options_.compute_error_bounds && !targets.has_abs) {
      targets.has_abs = true;
      targets.abs_sum =
          raster::Buffer2D<double>(viewport_.width(), viewport_.height(), 0);
      raster::ParallelSplatIndexed(
          splat_par, viewport_, schedule.indices.data(), schedule.size(),
          raster::BlendOp::kAdd,
          [&](std::size_t k) {
            return std::abs(static_cast<double>(column[schedule.ids[k]]));
          },
          targets.abs_sum);
    }
    const bool needs_minmax = query.aggregate.kind == AggregateKind::kMin ||
                              query.aggregate.kind == AggregateKind::kMax;
    if (needs_minmax && !targets.has_minmax) {
      targets.has_minmax = true;
      targets.min_value = raster::Buffer2D<float>(
          viewport_.width(), viewport_.height(),
          std::numeric_limits<float>::infinity());
      raster::ParallelSplatIndexed(
          splat_par, viewport_, schedule.indices.data(), schedule.size(),
          raster::BlendOp::kMin,
          [&](std::size_t k) { return column[schedule.ids[k]]; },
          targets.min_value);
      targets.max_value = raster::Buffer2D<float>(
          viewport_.width(), viewport_.height(),
          -std::numeric_limits<float>::infinity());
      raster::ParallelSplatIndexed(
          splat_par, viewport_, schedule.indices.data(), schedule.size(),
          raster::BlendOp::kMax,
          [&](std::size_t k) { return column[schedule.ids[k]]; },
          targets.max_value);
    }
  }
  costs.splat_seconds = splat_timer.ElapsedSeconds();
  URBANE_RETURN_IF_ERROR(queries.front().CheckControl());

  // Resolve each query's targets once; the sweep reads the map no more.
  std::vector<const AttrTargets*> query_targets(queries.size(), nullptr);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (queries[q].aggregate.NeedsAttribute()) {
      query_targets[q] = &per_attr.at(queries[q].aggregate.attribute);
    }
  }

  // --- shared pass 2: sweep each region's cached spans once, feeding every
  //     aggregate; the nonzero-count pixels of a span are gathered by the
  //     SIMD kernels and visited in ascending order, exactly like the
  //     per-pixel loop they replace ---
  WallTimer sweep_timer;
  const std::size_t num_regions = regions_.size();
  std::vector<QueryResult> results(queries.size());
  for (QueryResult& result : results) {
    result.values.assign(num_regions, 0.0);
    result.counts.assign(num_regions, 0);
    if (options_.compute_error_bounds) {
      result.error_bounds.assign(num_regions, 0.0);
    }
  }
  const raster::RasterKernels& kernels = raster::ActiveKernels();
  const std::uint32_t* count_data = count.data().data();
  std::vector<obs::ProfilePassCosts> worker_costs(exec.EffectiveThreads());
  ForEachPartition(exec, num_regions, [&](std::size_t part, std::size_t begin,
                                          std::size_t end) {
    obs::ProfilePassCosts& ws = worker_costs[part];
    std::vector<std::uint32_t> scratch(
        static_cast<std::size_t>(viewport_.width()));
    std::vector<Accumulator> accumulators(queries.size());
    for (std::size_t r = begin; r < end; ++r) {
      const internal::RegionSpanCache& cache = sweep_.regions[r];
      std::fill(accumulators.begin(), accumulators.end(), Accumulator());
      for (const raster::PixelSpan& span : cache.spans) {
        const std::size_t len =
            static_cast<std::size_t>(span.x_end - span.x_begin);
        ws.simd_fragments += len;
        const std::uint32_t* row =
            count.Row(span.y) + static_cast<std::size_t>(span.x_begin);
        const std::size_t hits =
            kernels.gather_nonzero_u32(row, len, scratch.data());
        for (std::size_t j = 0; j < hits; ++j) {
          const int x = span.x_begin + static_cast<int>(scratch[j]);
          const int y = span.y;
          const std::uint32_t c = row[scratch[j]];
          for (std::size_t q = 0; q < queries.size(); ++q) {
            const AggregateSpec& spec = queries[q].aggregate;
            Accumulator& acc = accumulators[q];
            if (!spec.NeedsAttribute()) {
              acc.AddBulk(c, 0.0);
              continue;
            }
            const AttrTargets& targets = *query_targets[q];
            switch (spec.kind) {
              case AggregateKind::kSum:
              case AggregateKind::kAvg:
                acc.AddBulk(c, targets.sum.at(x, y));
                break;
              case AggregateKind::kMin:
              case AggregateKind::kMax:
                acc.AddBulk(c, 0.0);
                acc.MergeMinMax(targets.min_value.at(x, y),
                                targets.max_value.at(x, y));
                break;
              default:
                acc.AddBulk(c, 0.0);
            }
          }
        }
      }
      ws.pixels_touched += cache.pixels;
      ws.tiles_visited += cache.tiles;
      // Error bounds share one cached boundary list per region.
      double count_bound = 0.0;
      std::map<std::string, double> abs_bound;
      if (options_.compute_error_bounds) {
        for (const std::uint32_t idx : cache.boundary) {
          count_bound += count_data[idx];
          for (const auto& [name, targets] : per_attr) {
            if (targets.has_abs) {
              abs_bound[name] += targets.abs_sum.data()[idx];
            }
          }
        }
        ws.boundary_pixels += cache.boundary.size();
      }
      for (std::size_t q = 0; q < queries.size(); ++q) {
        results[q].values[r] =
            accumulators[q].Finalize(queries[q].aggregate.kind);
        results[q].counts[r] = accumulators[q].count;
        if (options_.compute_error_bounds) {
          const AggregateSpec& spec = queries[q].aggregate;
          const bool sum_like = spec.kind == AggregateKind::kSum;
          results[q].error_bounds[r] =
              sum_like ? abs_bound[spec.attribute] : count_bound;
        }
      }
    }
  });
  for (const obs::ProfilePassCosts& ws : worker_costs) {
    costs.AddCounters(ws);
  }
  costs.sweep_seconds = sweep_timer.ElapsedSeconds();
  costs.query_seconds = timer.ElapsedSeconds();
  PublishExecution(*this, "raster", exec.EffectiveThreads(), costs,
                   queries.front().profile);
  return results;
}

std::size_t BoundedRasterJoin::MemoryBytes() const {
  // The paper's "no preprocessing" story (Table 2) now carries two small
  // query-independent caches: the Morton splat order and the per-region
  // sweep spans. Render targets and per-worker scratch remain per-query.
  return morton_.MemoryBytes() + sweep_.MemoryBytes();
}

}  // namespace urbane::core
