#ifndef URBANE_TESTS_TESTING_TEST_WORLDS_H_
#define URBANE_TESTS_TESTING_TEST_WORLDS_H_

#include <cstdint>
#include <vector>

#include "data/point_table.h"
#include "data/region.h"
#include "data/region_generator.h"
#include "geometry/polygon.h"
#include "util/logging.h"
#include "util/random.h"

namespace urbane::testing {

/// A small deterministic spatio-temporal world for executor tests: points
/// with one attribute ("v") scattered in [0, 100]^2 over one day, plus a
/// region set.
struct TestWorld {
  data::PointTable points;
  data::RegionSet regions;
};

/// Uniform random points with v ~ U[-10, 10] and t ~ U[0, 86400).
inline data::PointTable MakeUniformPoints(std::size_t count,
                                          std::uint64_t seed,
                                          double lo = 0.0,
                                          double hi = 100.0) {
  data::Schema schema(std::vector<std::string>{"v"});
  data::PointTable table(schema);
  table.Reserve(count);
  Rng rng(seed);
  std::vector<float>& v = table.mutable_attribute_column(0);
  for (std::size_t i = 0; i < count; ++i) {
    table.AppendXyt(static_cast<float>(rng.NextDouble(lo, hi)),
                    static_cast<float>(rng.NextDouble(lo, hi)),
                    rng.NextInt(0, 86399));
    v.push_back(static_cast<float>(rng.NextDouble(-10.0, 10.0)));
  }
  return table;
}

/// Uniform random points whose attribute values are dyadic rationals
/// v = k/256, k integer in [-2560, 2560]. Every partial double sum of such
/// values (at test scale) is exact, so summation order cannot change a
/// single bit — folds that reorder additions (thread partitions, shard
/// merges) must then be BIT-identical to the serial fold, not merely
/// close. Conformance suites use this to pin down float SUM/AVG merge
/// paths that tolerance comparisons would let drift.
inline data::PointTable MakeDyadicPoints(std::size_t count,
                                         std::uint64_t seed,
                                         double lo = 0.0,
                                         double hi = 100.0) {
  data::Schema schema(std::vector<std::string>{"v"});
  data::PointTable table(schema);
  table.Reserve(count);
  Rng rng(seed);
  std::vector<float>& v = table.mutable_attribute_column(0);
  for (std::size_t i = 0; i < count; ++i) {
    table.AppendXyt(static_cast<float>(rng.NextDouble(lo, hi)),
                    static_cast<float>(rng.NextDouble(lo, hi)),
                    rng.NextInt(0, 86399));
    v.push_back(static_cast<float>(rng.NextInt(-2560, 2560)) / 256.0f);
  }
  return table;
}

/// Owning copy of `table` (a view or an owning table) built row by row,
/// so its Bounds()/TimeRange() come from a scan, never from cached
/// extents — the reference the store's cached extents must equal.
inline data::PointTable CopyRows(const data::PointTable& table) {
  data::PointTable copy(table.schema());
  copy.Reserve(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    copy.AppendXyt(table.x(i), table.y(i), table.t(i));
  }
  for (std::size_t c = 0; c < table.schema().attribute_count(); ++c) {
    const float* col = table.attribute_data(c);
    copy.mutable_attribute_column(c).assign(col, col + table.size());
  }
  return copy;
}

/// Star-convex random polygon (always simple).
inline geometry::Polygon RandomStarPolygon(Rng& rng, const geometry::Vec2& c,
                                           double radius,
                                           std::size_t vertices) {
  geometry::Ring ring;
  ring.reserve(vertices);
  const double phase = rng.NextDouble(0.0, 2.0 * M_PI);
  for (std::size_t i = 0; i < vertices; ++i) {
    const double angle = phase + 2.0 * M_PI * static_cast<double>(i) /
                                     static_cast<double>(vertices);
    const double r = radius * rng.NextDouble(0.55, 1.0);
    ring.push_back(
        {c.x + r * std::cos(angle), c.y + r * std::sin(angle)});
  }
  return geometry::Polygon(std::move(ring));
}

/// Random possibly-overlapping star polygons over [0, 100]^2.
inline data::RegionSet MakeRandomRegions(std::size_t count,
                                         std::uint64_t seed,
                                         std::size_t vertices = 12) {
  data::RegionSet regions;
  Rng rng(seed);
  for (std::size_t r = 0; r < count; ++r) {
    data::Region region;
    region.id = static_cast<std::int64_t>(r);
    region.name = "T-" + std::to_string(r);
    region.geometry = geometry::MultiPolygon(RandomStarPolygon(
        rng, {rng.NextDouble(15.0, 85.0), rng.NextDouble(15.0, 85.0)},
        rng.NextDouble(5.0, 18.0), vertices));
    URBANE_CHECK_OK(regions.Add(std::move(region)));
  }
  return regions;
}

/// A tessellation world in [0,100]^2 (disjoint cover of the bounds).
inline data::RegionSet MakeTessellationRegions(int cells, std::uint64_t seed) {
  data::TessellationOptions options;
  options.cells_x = cells;
  options.cells_y = cells;
  options.seed = seed;
  options.bounds = geometry::BoundingBox(0.0, 0.0, 100.0, 100.0);
  options.edge_subdivisions = 3;
  options.edge_wiggle = 0.05;
  return data::GenerateTessellation(options);
}

inline TestWorld MakeWorld(std::size_t num_points, std::size_t num_regions,
                           std::uint64_t seed) {
  TestWorld world;
  world.points = MakeUniformPoints(num_points, seed);
  world.regions = MakeRandomRegions(num_regions, seed ^ 0xABCDEF);
  return world;
}

}  // namespace urbane::testing

#endif  // URBANE_TESTS_TESTING_TEST_WORLDS_H_
