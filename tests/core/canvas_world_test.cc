// The raster canvas covers the regions alone (CanvasWorld). A point outside
// the regions' box lies in no region, so rows there — dirty coordinates a
// real feed holds: (0, 0), ±inf, NaN, 1e30 — must change neither the canvas
// nor any raster answer, and the accurate join must still equal the scan.
// Points exactly on the region box's edges and corners sit in boundary
// pixels, where the accurate join's exact test must agree with the scan's.
//
// The suite is labeled `simd`: the splat kernels map these coordinates to
// no pixel at every URBANE_SIMD level, and the gates run it at each.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/accurate_join.h"
#include "core/raster_join.h"
#include "core/scan_join.h"
#include "data/region_generator.h"
#include "data/taxi_generator.h"
#include "util/random.h"

namespace urbane::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct Outlier {
  double x;
  double y;
};

// Generated trips in the neighborhoods' city box.
const data::PointTable& Trips() {
  static const data::PointTable* trips = [] {
    data::TaxiGeneratorOptions options;
    options.num_trips = 3000;
    options.seed = 7;
    return new data::PointTable(data::GenerateTaxiTrips(options));
  }();
  return *trips;
}

const data::RegionSet& Hoods() {
  static const data::RegionSet* hoods =
      new data::RegionSet(data::GenerateNeighborhoods(3));
  return *hoods;
}

// `clean` with one row per outlier appended, each at the first row's time
// with every attribute 1.
data::PointTable WithOutliers(const data::PointTable& clean,
                              const std::vector<Outlier>& outliers) {
  data::PointTable dirty = clean;
  const std::vector<float> ones(clean.schema().attribute_count(), 1.0f);
  for (const Outlier& o : outliers) {
    URBANE_CHECK_OK(dirty.AppendRow(static_cast<float>(o.x),
                                    static_cast<float>(o.y), clean.t(0), ones));
  }
  return dirty;
}

std::vector<AggregateSpec> AllAggregates() {
  return {AggregateSpec::Count(), AggregateSpec::Sum("fare_amount"),
          AggregateSpec::Avg("fare_amount"), AggregateSpec::Min("tip_amount"),
          AggregateSpec::Max("trip_distance")};
}

std::vector<FilterSpec> Filters(const data::PointTable& points) {
  FilterSpec trivial;
  FilterSpec brush;
  brush.WithTime(points.t(0), points.t(0) + 10 * 24 * 3600);
  return {trivial, brush};
}

std::uint64_t Bits(double v) {
  return std::isnan(v) ? 0x7FF8000000000000ull
                       : std::bit_cast<std::uint64_t>(v);
}

void ExpectSameBits(const QueryResult& got, const QueryResult& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  ASSERT_EQ(got.error_bounds.size(), want.error_bounds.size()) << what;
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got.counts[r], want.counts[r]) << what << " region " << r;
    EXPECT_EQ(Bits(got.values[r]), Bits(want.values[r]))
        << what << " region " << r;
  }
  for (std::size_t r = 0; r < want.error_bounds.size(); ++r) {
    EXPECT_EQ(Bits(got.error_bounds[r]), Bits(want.error_bounds[r]))
        << what << " bound " << r;
  }
}

// Exact per region: counts and MIN/MAX bit for bit; SUM/AVG to rounding,
// since the scan adds a region's points in row order and the accurate join
// pixel by pixel.
void ExpectMatchesScan(const QueryResult& accurate, const QueryResult& scan,
                       AggregateKind kind, const std::string& what) {
  ASSERT_EQ(accurate.size(), scan.size()) << what;
  for (std::size_t r = 0; r < scan.size(); ++r) {
    EXPECT_EQ(accurate.counts[r], scan.counts[r]) << what << " region " << r;
    if ((kind == AggregateKind::kSum || kind == AggregateKind::kAvg) &&
        !std::isnan(scan.values[r])) {
      EXPECT_NEAR(accurate.values[r], scan.values[r],
                  1e-9 * std::max(1.0, std::fabs(scan.values[r])))
          << what << " region " << r;
    } else {
      EXPECT_EQ(Bits(accurate.values[r]), Bits(scan.values[r]))
          << what << " region " << r;
    }
  }
}

QueryResult RunQuery(const SpatialAggregationExecutor& executor,
                     const data::PointTable& points,
                     const data::RegionSet& regions,
                     const AggregateSpec& aggregate,
                     const FilterSpec& filter) {
  AggregationQuery query;
  query.points = &points;
  query.regions = &regions;
  query.aggregate = aggregate;
  query.filter = filter;
  StatusOr<QueryResult> result = executor.Execute(query);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : QueryResult();
}

// Each outlier alone, then all of them together.
std::vector<std::vector<Outlier>> OutlierSets() {
  const std::vector<Outlier> all = {
      {0.0, 0.0}, {kInf, 4.97e6}, {-kInf, 4.97e6}, {kNaN, 4.97e6},
      {1e30, 4.97e6}};
  std::vector<std::vector<Outlier>> sets;
  for (const Outlier& o : all) sets.push_back({o});
  sets.push_back(all);
  return sets;
}

std::string Describe(const std::vector<Outlier>& outliers) {
  std::string out;
  for (const Outlier& o : outliers) {
    out += "(" + std::to_string(o.x) + ", " + std::to_string(o.y) + ")";
  }
  return out;
}

void ExpectCanvasEqual(const raster::Viewport& got,
                       const raster::Viewport& want) {
  EXPECT_EQ(got.width(), want.width());
  EXPECT_EQ(got.height(), want.height());
  EXPECT_EQ(got.world(), want.world());
  EXPECT_EQ(Bits(got.EpsilonWorld()), Bits(want.EpsilonWorld()));
}

TEST(BoundedRasterJoinTest, OutlierRowsChangeNeitherCanvasNorAnswers) {
  const data::PointTable& clean = Trips();
  const data::RegionSet& hoods = Hoods();
  RasterJoinOptions options;
  options.resolution = 256;
  const auto reference = BoundedRasterJoin::Create(clean, hoods, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (const std::vector<Outlier>& outliers : OutlierSets()) {
    SCOPED_TRACE(Describe(outliers));
    const data::PointTable dirty = WithOutliers(clean, outliers);
    const auto join = BoundedRasterJoin::Create(dirty, hoods, options);
    ASSERT_TRUE(join.ok()) << join.status().ToString();
    ExpectCanvasEqual((*join)->canvas(), (*reference)->canvas());
    for (const AggregateSpec& aggregate : AllAggregates()) {
      for (const FilterSpec& filter : Filters(clean)) {
        const std::string what = AggregateKindToString(aggregate.kind);
        ExpectSameBits(
            RunQuery(**join, dirty, hoods, aggregate, filter),
            RunQuery(**reference, clean, hoods, aggregate, filter), what);
      }
    }
  }
}

TEST(AccurateRasterJoinTest, OutlierRowsChangeNeitherCanvasNorAnswers) {
  const data::PointTable& clean = Trips();
  const data::RegionSet& hoods = Hoods();
  RasterJoinOptions options;
  options.resolution = 256;
  const auto reference = AccurateRasterJoin::Create(clean, hoods, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (const std::vector<Outlier>& outliers : OutlierSets()) {
    SCOPED_TRACE(Describe(outliers));
    const data::PointTable dirty = WithOutliers(clean, outliers);
    const auto join = AccurateRasterJoin::Create(dirty, hoods, options);
    ASSERT_TRUE(join.ok()) << join.status().ToString();
    const auto scan = ScanJoin::Create(dirty, hoods);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    ExpectCanvasEqual((*join)->canvas(), (*reference)->canvas());
    for (const AggregateSpec& aggregate : AllAggregates()) {
      for (const FilterSpec& filter : Filters(clean)) {
        const std::string what = AggregateKindToString(aggregate.kind);
        const QueryResult got =
            RunQuery(**join, dirty, hoods, aggregate, filter);
        ExpectSameBits(
            got, RunQuery(**reference, clean, hoods, aggregate, filter), what);
        ExpectMatchesScan(
            got, RunQuery(**scan, dirty, hoods, aggregate, filter),
            aggregate.kind, what);
      }
    }
  }
}

// Three regions whose box, [10, 90] x [20, 70], has float-exact edges: a
// square, a triangle and a hexagon-ish polygon touching the box's sides.
data::RegionSet EdgeRegions() {
  data::RegionSet regions;
  const std::vector<geometry::Ring> rings = {
      {{10, 20}, {50, 20}, {50, 70}, {10, 70}},
      {{50, 20}, {90, 20}, {70, 45}},
      {{70, 45}, {90, 20}, {90, 70}, {50, 70}, {50, 45}}};
  for (std::size_t r = 0; r < rings.size(); ++r) {
    data::Region region;
    region.id = static_cast<std::int64_t>(r);
    region.geometry = geometry::MultiPolygon(geometry::Polygon(rings[r]));
    URBANE_CHECK_OK(regions.Add(std::move(region)));
  }
  return regions;
}

TEST(AccurateRasterJoinTest, PointsOnRegionBoxEdgesMatchScan) {
  const data::RegionSet regions = EdgeRegions();
  const geometry::BoundingBox box = regions.Bounds();
  ASSERT_EQ(box, geometry::BoundingBox(10, 20, 90, 70));
  // Every corner, points along each edge (region vertices among them), a
  // float step inside and outside each edge, and a few interior points.
  data::PointTable points(data::Schema(std::vector<std::string>{"v"}));
  const auto add = [&points](double x, double y) {
    const float v = static_cast<float>(points.size() % 7) / 4.0f;
    URBANE_CHECK_OK(points.AppendRow(static_cast<float>(x),
                                     static_cast<float>(y), 0, {v}));
  };
  for (const double x : {10.0, 30.0, 50.0, 70.0, 90.0, 33.3, 81.7}) {
    for (const double y : {box.min_y, box.max_y}) {
      add(x, y);
      add(x, std::nextafter(static_cast<float>(y), 0.0f));
      add(x, std::nextafter(static_cast<float>(y), 1e9f));
    }
  }
  for (const double y : {20.0, 45.0, 70.0, 31.9, 58.4}) {
    for (const double x : {box.min_x, box.max_x}) {
      add(x, y);
      add(std::nextafter(static_cast<float>(x), 0.0f), y);
      add(std::nextafter(static_cast<float>(x), 1e9f), y);
    }
  }
  Rng rng(0xED9E);
  for (int i = 0; i < 200; ++i) {
    add(rng.NextDouble(5.0, 95.0), rng.NextDouble(15.0, 75.0));
  }

  const auto scan = ScanJoin::Create(points, regions);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  for (const int resolution : {7, 64, 100, 256, 1000}) {
    SCOPED_TRACE(resolution);
    RasterJoinOptions options;
    options.resolution = resolution;
    const auto accurate = AccurateRasterJoin::Create(points, regions, options);
    ASSERT_TRUE(accurate.ok()) << accurate.status().ToString();
    for (const AggregateSpec& aggregate :
         {AggregateSpec::Count(), AggregateSpec::Sum("v"),
          AggregateSpec::Min("v"), AggregateSpec::Max("v")}) {
      const FilterSpec trivial;
      const QueryResult want =
          RunQuery(**scan, points, regions, aggregate, trivial);
      const QueryResult got =
          RunQuery(**accurate, points, regions, aggregate, trivial);
      // The values are multiples of 1/4, so every sum is exact.
      ExpectSameBits(got, want, AggregateKindToString(aggregate.kind));
    }
  }
}

}  // namespace
}  // namespace urbane::core
