#ifndef URBANE_CORE_PLANNER_H_
#define URBANE_CORE_PLANNER_H_

#include <string>

#include "core/query.h"
#include "geometry/bounding_box.h"

namespace urbane::core {

/// Execution strategies the planner can choose between.
enum class ExecutionMethod {
  kScan,
  kIndexJoin,
  kBoundedRaster,
  kAccurateRaster,
};

const char* ExecutionMethodToString(ExecutionMethod method);

/// Accuracy contract of a query.
struct AccuracyRequirement {
  /// Exact answers required (forces an exact executor).
  bool exact = true;
  /// When !exact: acceptable geometric slack in world meters — points
  /// within epsilon of a region boundary may be misattributed. 0 means
  /// "use the default canvas".
  double epsilon_world = 0.0;
};

/// Inputs the cost model needs (all cheap to obtain).
struct WorkloadProfile {
  std::size_t num_points = 0;
  std::size_t num_regions = 0;
  std::size_t total_region_vertices = 0;
  geometry::BoundingBox world;
  /// Estimated filter selectivity in [0, 1] (1 = no filter).
  double selectivity = 1.0;
  /// Whether a reusable point index already exists.
  bool has_point_index = false;
  /// Shard fan-out the engine is configured for (SpatialAggregation::
  /// set_num_shards); 1 = unsharded. Sharding never changes which method
  /// is cheapest — every method shards the same way (by row range) — so
  /// the planner passes it through to the plan rather than weighing it.
  std::size_t available_shards = 1;
};

/// The chosen plan plus the reasoning (EXPLAIN-style).
struct QueryPlan {
  ExecutionMethod method = ExecutionMethod::kScan;
  /// Canvas resolution for the raster methods (0 for non-raster).
  int resolution = 0;
  /// Predicted relative costs (arbitrary units) per method, for reports.
  double cost_scan = 0.0;
  double cost_index = 0.0;
  double cost_raster = 0.0;
  /// Scatter-gather fan-out the chosen method will run with (1 = serial
  /// engine). Mirrors WorkloadProfile::available_shards.
  std::size_t shards = 1;
  std::string explanation;
};

/// Chooses an execution strategy with a simple analytic cost model:
///   scan    ~ selectivity * P * log2(R)   (R-tree probes + PIP)
///   index   ~ region cells + boundary-cell points (needs a point index)
///   raster  ~ selectivity * P + covered pixels (+ boundary work if exact)
/// The interesting behaviour the model reproduces: raster join wins once
/// P is large relative to the canvas, and the bounded variant wins whenever
/// an epsilon is tolerated (as in interactive exploration).
QueryPlan PlanQuery(const WorkloadProfile& profile,
                    const AccuracyRequirement& accuracy,
                    int default_resolution = 1024);

}  // namespace urbane::core

#endif  // URBANE_CORE_PLANNER_H_
