// Replay golden: a fixed, seeded session over generated taxi trips, run by
// every method at one and four shards and through the planner, folded into
// two hashes and four exact work totals that are checked in. Most oracles
// compare methods and configurations within one build, so a change that
// moves every method's answer at once passes them; this one pins the
// answers, the plans and the work across commits.
//
//  * `exact` hashes what must not move without a semantic change: every
//    count, the COUNT/MIN/MAX value bits, every error bound that is a
//    boundary point count (all aggregates but SUM) and each plan's method
//    and resolution.
//  * `sums` hashes the SUM/AVG value bits and SUM's error bounds, whose
//    rounding depends on the order of additions.
//  * the totals (`points_scanned`, `pip_tests`, `pixels_touched`,
//    `refine_rows`) come from the attached query profiles, per engine.
//
// A change that moves an answer or the work on purpose updates the golden
// below and says why. The suite is labeled `simd`, so the gates replay it
// at every URBANE_SIMD level, where the bits must not move either.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/spatial_aggregation.h"
#include "data/region_generator.h"
#include "data/taxi_generator.h"
#include "geometry/mercator.h"
#include "obs/profile.h"
#include "util/random.h"

namespace urbane::core {
namespace {

// FNV-1a over 64-bit words.
class Fnv {
 public:
  void Add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (word >> (8 * b)) & 0xFF;
      hash_ *= 0x100000001B3ull;
    }
  }
  // Every NaN hashes alike: an empty region's AVG/MIN/MAX.
  void AddDouble(double value) {
    Add(std::isnan(value) ? 0x7FF8000000000000ull
                          : std::bit_cast<std::uint64_t>(value));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

struct WorkTotals {
  std::uint64_t points_scanned = 0;
  std::uint64_t pip_tests = 0;
  std::uint64_t pixels_touched = 0;
  std::uint64_t refine_rows = 0;

  void Add(const obs::ProfilePassCosts& costs) {
    points_scanned += costs.points_scanned;
    pip_tests += costs.pip_tests;
    pixels_touched += costs.pixels_touched;
    refine_rows += costs.refine_rows;
  }
};

// 40 queries, each of the five aggregates over eight filters: the trivial
// filter, a viewport window, two time brushes of 1-24 h, fare and distance
// ranges inside two brushes of 1-7 days, and two windows inside such a
// brush. All but the first two are selective, as brushing is; each raster
// execution still sweeps the whole canvas.
std::vector<AggregationQuery> ReplayQueries() {
  constexpr std::int64_t kStart = 1230768000;  // the trips' first second
  constexpr std::int64_t kHour = 3600;
  const AggregateSpec aggregates[] = {
      AggregateSpec::Count(), AggregateSpec::Sum("fare_amount"),
      AggregateSpec::Avg("tip_amount"), AggregateSpec::Min("trip_distance"),
      AggregateSpec::Max("fare_amount")};
  const geometry::BoundingBox city = geometry::NycMercatorBounds();
  Rng rng(2718);
  const auto brush = [&](FilterSpec& filter, std::int64_t max_hours) {
    const std::int64_t begin = kStart + rng.NextInt(0, 30 * 24) * kHour;
    filter.WithTime(begin, begin + rng.NextInt(1, max_hours) * kHour);
  };
  const auto window = [&](FilterSpec& filter) {
    const double w = city.Width() * rng.NextDouble(0.1, 0.4);
    const double h = city.Height() * rng.NextDouble(0.1, 0.4);
    const double x = rng.NextDouble(city.min_x, city.max_x - w);
    const double y = rng.NextDouble(city.min_y, city.max_y - h);
    filter.WithWindow(geometry::BoundingBox(x, y, x + w, y + h));
  };
  std::vector<AggregationQuery> queries;
  for (int i = 0; i < 40; ++i) {
    AggregationQuery query;
    query.aggregate = aggregates[i % 5];
    FilterSpec& filter = query.filter;
    switch (i / 5) {
      case 0:
        break;
      case 1:
        window(filter);
        break;
      case 2:
      case 3:
        brush(filter, 24);
        break;
      case 4:
      case 5: {
        brush(filter, 7 * 24);
        const double fare = rng.NextDouble(2.0, 30.0);
        const double distance = rng.NextDouble(0.5, 8.0);
        filter.WithRange("fare_amount", fare, fare + rng.NextDouble(2.0, 20.0))
            .WithRange("trip_distance", distance,
                       distance + rng.NextDouble(0.5, 5.0));
        break;
      }
      default:
        brush(filter, 7 * 24);
        window(filter);
        break;
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

void Fold(const QueryResult& result, AggregateKind kind, Fnv& exact,
          Fnv& sums) {
  const bool summed =
      kind == AggregateKind::kSum || kind == AggregateKind::kAvg;
  for (std::size_t r = 0; r < result.size(); ++r) {
    exact.Add(result.counts[r]);
    (summed ? sums : exact).AddDouble(result.values[r]);
  }
  Fnv& bounds = kind == AggregateKind::kSum ? sums : exact;
  bounds.Add(result.error_bounds.size());
  for (const double bound : result.error_bounds) bounds.AddDouble(bound);
}

TEST(ReplayGoldenTest, AnswersPlansAndWorkMatchTheGolden) {
  data::TaxiGeneratorOptions trip_options;
  trip_options.num_trips = 100'000;
  trip_options.seed = 42;
  const data::PointTable trips = data::GenerateTaxiTrips(trip_options);
  const data::RegionSet hoods = data::GenerateNeighborhoods(3);

  SpatialAggregation serial(trips, hoods);
  SpatialAggregation sharded(trips, hoods);
  sharded.set_num_shards(4);
  SpatialAggregation planned(trips, hoods);
  const ExecutionMethod methods[] = {
      ExecutionMethod::kScan, ExecutionMethod::kIndexJoin,
      ExecutionMethod::kBoundedRaster, ExecutionMethod::kAccurateRaster};
  const AccuracyRequirement accuracies[] = {
      {.exact = true}, {.exact = false, .epsilon_world = 50.0}};

  Fnv exact;
  Fnv sums;
  WorkTotals work[3];  // serial, sharded, planned
  for (const AggregationQuery& query : ReplayQueries()) {
    const AggregateKind kind = query.aggregate.kind;
    SpatialAggregation* const engines[] = {&serial, &sharded};
    for (int e = 0; e < 2; ++e) {
      for (const ExecutionMethod method : methods) {
        obs::QueryProfile profile;
        AggregationQuery run = query;
        run.profile = &profile;
        const StatusOr<QueryResult> result = engines[e]->Execute(run, method);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        Fold(*result, kind, exact, sums);
        work[e].Add(profile.totals);
      }
    }
    for (const AccuracyRequirement& accuracy : accuracies) {
      obs::QueryProfile profile;
      AggregationQuery run = query;
      run.profile = &profile;
      QueryPlan plan;
      const StatusOr<QueryResult> result =
          planned.ExecuteAuto(run, accuracy, &plan);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      exact.Add(static_cast<std::uint64_t>(plan.method));
      exact.Add(static_cast<std::uint64_t>(plan.resolution));
      Fold(*result, kind, exact, sums);
      work[2].Add(profile.totals);
    }
  }

  EXPECT_EQ(exact.value(), 0x9400c85490b5b596ull) << std::hex << exact.value();
  EXPECT_EQ(sums.value(), 0xb81c682a0e64e306ull) << std::hex << sums.value();
  const char* const names[] = {"1 shard", "4 shards", "planned"};
  const WorkTotals golden[] = {{2'200'740, 1'718'876, 82'821'120, 51'052},
                               {2'200'740, 1'718'876, 331'284'480, 115'828},
                               {1'100'370, 164'112, 20'919'910, 39'400}};
  for (int e = 0; e < 3; ++e) {
    EXPECT_EQ(work[e].points_scanned, golden[e].points_scanned) << names[e];
    EXPECT_EQ(work[e].pip_tests, golden[e].pip_tests) << names[e];
    EXPECT_EQ(work[e].pixels_touched, golden[e].pixels_touched) << names[e];
    EXPECT_EQ(work[e].refine_rows, golden[e].refine_rows) << names[e];
  }
}

}  // namespace
}  // namespace urbane::core
