// Parallel execution must not change answers: for every executor and every
// aggregate, running with an ExecutionContext of N threads must reproduce
// the serial result — counts and integer aggregates bit-identical, float
// SUM/AVG within 1e-6-relative (only the summation order moves), MIN/MAX
// exact. Results must also be reproducible run-to-run at a fixed thread
// count (partitioning is by thread count, not by scheduling).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/accurate_join.h"
#include "core/index_join.h"
#include "core/raster_join.h"
#include "core/scan_join.h"
#include "testing/test_worlds.h"
#include "util/thread_pool.h"

namespace urbane::core {
namespace {

enum class ExecKind { kScan, kIndex, kBounded, kAccurate };

const char* ExecKindName(ExecKind kind) {
  switch (kind) {
    case ExecKind::kScan:
      return "scan";
    case ExecKind::kIndex:
      return "index";
    case ExecKind::kBounded:
      return "bounded";
    case ExecKind::kAccurate:
      return "accurate";
  }
  return "unknown";
}

struct DetConfig {
  ExecKind exec;
  AggregateKind kind;

  friend std::ostream& operator<<(std::ostream& os, const DetConfig& c) {
    return os << ExecKindName(c.exec) << "_"
              << AggregateKindToString(c.kind);
  }
};

StatusOr<QueryResult> RunWith(ExecKind kind, const data::PointTable& points,
                              const data::RegionSet& regions,
                              const AggregationQuery& query,
                              const ExecutionContext& exec) {
  switch (kind) {
    case ExecKind::kScan: {
      URBANE_ASSIGN_OR_RETURN(auto join,
                              ScanJoin::Create(points, regions, exec));
      return join->Execute(query);
    }
    case ExecKind::kIndex: {
      IndexJoinOptions options;
      options.exec = exec;
      URBANE_ASSIGN_OR_RETURN(auto join,
                              IndexJoin::Create(points, regions, options));
      return join->Execute(query);
    }
    case ExecKind::kBounded: {
      RasterJoinOptions options;
      options.resolution = 128;
      options.exec = exec;
      URBANE_ASSIGN_OR_RETURN(
          auto join, BoundedRasterJoin::Create(points, regions, options));
      return join->Execute(query);
    }
    case ExecKind::kAccurate: {
      RasterJoinOptions options;
      options.resolution = 128;
      options.exec = exec;
      URBANE_ASSIGN_OR_RETURN(
          auto join, AccurateRasterJoin::Create(points, regions, options));
      return join->Execute(query);
    }
  }
  return Status::InvalidArgument("unknown executor kind");
}

class ParallelDeterminismTest : public ::testing::TestWithParam<DetConfig> {};

TEST_P(ParallelDeterminismTest, ParallelMatchesSerial) {
  const DetConfig& config = GetParam();
  const auto points = testing::MakeUniformPoints(8000, 4242);
  const data::RegionSet regions = testing::MakeRandomRegions(8, 0xD15EA5E);

  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  query.aggregate.kind = config.kind;
  if (query.aggregate.NeedsAttribute()) {
    query.aggregate.attribute = "v";
  }
  // Non-trivial filter so the parallel filter path is exercised too.
  query.filter.WithTime(10000, 80000).WithRange("v", -9.0, 8.0);

  const auto serial =
      RunWith(config.exec, points, regions, query, ExecutionContext());
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  for (const std::size_t threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadPool pool(threads);
    ExecutionContext exec;
    exec.pool = &pool;
    exec.num_threads = threads;
    exec.min_parallel_points = 1;  // the test world is small on purpose

    const auto parallel =
        RunWith(config.exec, points, regions, query, exec);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ASSERT_EQ(parallel->counts.size(), serial->counts.size());

    for (std::size_t r = 0; r < regions.size(); ++r) {
      EXPECT_EQ(parallel->counts[r], serial->counts[r])
          << "count, region " << r;
      if (serial->counts[r] == 0) {
        continue;  // AVG/MIN/MAX finalize to NaN on empty groups
      }
      if (config.kind == AggregateKind::kCount ||
          config.kind == AggregateKind::kMin ||
          config.kind == AggregateKind::kMax) {
        // Order-independent aggregates must be bit-identical.
        EXPECT_EQ(parallel->values[r], serial->values[r])
            << "value, region " << r;
      } else {
        const double tol =
            1e-6 * std::max(1.0, std::fabs(serial->values[r]));
        EXPECT_NEAR(parallel->values[r], serial->values[r], tol)
            << "value, region " << r;
      }
      if (r < serial->error_bounds.size() &&
          r < parallel->error_bounds.size()) {
        const double tol =
            1e-6 * std::max(1.0, std::fabs(serial->error_bounds[r]));
        EXPECT_NEAR(parallel->error_bounds[r], serial->error_bounds[r], tol)
            << "error bound, region " << r;
      }
    }

    // Reproducibility at a fixed thread count: partitioning depends only
    // on num_threads, so a second run is bit-identical — floats included.
    const auto again = RunWith(config.exec, points, regions, query, exec);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    for (std::size_t r = 0; r < regions.size(); ++r) {
      EXPECT_EQ(again->counts[r], parallel->counts[r]);
      if (parallel->counts[r] == 0) continue;
      EXPECT_EQ(again->values[r], parallel->values[r])
          << "rerun value, region " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelDeterminismTest,
    ::testing::Values(
        DetConfig{ExecKind::kScan, AggregateKind::kCount},
        DetConfig{ExecKind::kScan, AggregateKind::kSum},
        DetConfig{ExecKind::kScan, AggregateKind::kAvg},
        DetConfig{ExecKind::kScan, AggregateKind::kMin},
        DetConfig{ExecKind::kScan, AggregateKind::kMax},
        DetConfig{ExecKind::kIndex, AggregateKind::kCount},
        DetConfig{ExecKind::kIndex, AggregateKind::kSum},
        DetConfig{ExecKind::kIndex, AggregateKind::kAvg},
        DetConfig{ExecKind::kIndex, AggregateKind::kMin},
        DetConfig{ExecKind::kIndex, AggregateKind::kMax},
        DetConfig{ExecKind::kBounded, AggregateKind::kCount},
        DetConfig{ExecKind::kBounded, AggregateKind::kSum},
        DetConfig{ExecKind::kBounded, AggregateKind::kAvg},
        DetConfig{ExecKind::kBounded, AggregateKind::kMin},
        DetConfig{ExecKind::kBounded, AggregateKind::kMax},
        DetConfig{ExecKind::kAccurate, AggregateKind::kCount},
        DetConfig{ExecKind::kAccurate, AggregateKind::kSum},
        DetConfig{ExecKind::kAccurate, AggregateKind::kAvg},
        DetConfig{ExecKind::kAccurate, AggregateKind::kMin},
        DetConfig{ExecKind::kAccurate, AggregateKind::kMax}),
    [](const ::testing::TestParamInfo<DetConfig>& info) {
      std::ostringstream os;
      os << info.param;
      return os.str();
    });

}  // namespace
}  // namespace urbane::core
