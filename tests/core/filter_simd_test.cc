// EvaluateFilter and EstimateFilterSelectivity at every SIMD level against a
// row-at-a-time reference written here: a row passes when its time lies in
// the half-open range, its (x, y) in the closed window (BoundingBox::Contains
// in double) and every attribute v satisfies v >= lo && v <= hi with the
// bounds rounded to float, so NaN fails. The bitmap and the ascending ids
// must equal the reference's bit for bit, whatever the table size, the
// conjuncts switched on, or the candidate ranges (mid-chunk, touching,
// empty).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/filter.h"
#include "core/row_range.h"
#include "raster/simd.h"
#include "util/random.h"

namespace urbane::core {
namespace {

std::vector<raster::SimdLevel> AvailableLevels() {
  std::vector<raster::SimdLevel> levels = {raster::SimdLevel::kOff};
  const int max = static_cast<int>(raster::CpuMaxSimdLevel());
  if (max >= static_cast<int>(raster::SimdLevel::kSse2)) {
    levels.push_back(raster::SimdLevel::kSse2);
  }
  if (max >= static_cast<int>(raster::SimdLevel::kAvx2)) {
    levels.push_back(raster::SimdLevel::kAvx2);
  }
  return levels;
}

/// Restores the environment-derived level however the test exits.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(raster::SimdLevel level) {
    raster::SetSimdLevel(level);
  }
  ~ScopedSimdLevel() { raster::ResetSimdLevelFromEnv(); }
};

/// Row-at-a-time reference predicate.
bool RowPasses(const FilterSpec& spec, const data::PointTable& table,
               std::size_t row) {
  if (spec.time_range && !spec.time_range->Contains(table.t(row))) {
    return false;
  }
  if (spec.spatial_window &&
      !spec.spatial_window->Contains({table.x(row), table.y(row)})) {
    return false;
  }
  for (const AttributeRange& range : spec.attribute_ranges) {
    const int col = table.schema().AttributeIndex(range.attribute);
    const float v = table.attribute(row, static_cast<std::size_t>(col));
    if (!(v >= static_cast<float>(range.lo) &&
          v <= static_cast<float>(range.hi))) {
      return false;
    }
  }
  return true;
}

FilterSelection Reference(const FilterSpec& spec,
                          const data::PointTable& table,
                          const RowRangeSet* candidates) {
  FilterSelection selection;
  selection.bitmap.assign(table.size(), 0);
  const auto visit = [&](std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t row = begin; row < end && row < table.size(); ++row) {
      if (RowPasses(spec, table, row)) {
        selection.bitmap[row] = 1;
        selection.ids.push_back(static_cast<std::uint32_t>(row));
      }
    }
  };
  if (candidates == nullptr) {
    visit(0, table.size());
  } else {
    for (const RowRange& range : candidates->ranges()) {
      visit(range.begin, range.end);
    }
  }
  return selection;
}

/// Rows salted with NaN, ±inf, ±0.0, the filter bounds and their float
/// neighbours, and the int64 time extremes.
data::PointTable SaltedTable(std::size_t n, std::uint64_t seed) {
  data::PointTable table(data::Schema({"fare", "distance"}));
  Rng rng(seed);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float attr_salt[] = {nan,   inf,   -inf,
                             0.0f,  -0.0f, 10.0f,
                             20.0f, std::nextafter(10.0f, 0.0f),
                             std::nextafter(20.0f, 30.0f),
                             static_cast<float>(2.3),
                             std::nextafter(static_cast<float>(2.3), 0.0f),
                             std::nextafter(static_cast<float>(2.3), 9.0f)};
  const float xy_salt[] = {nan,
                           inf,
                           -0.0f,
                           static_cast<float>(25.3),
                           std::nextafter(static_cast<float>(25.3), 0.0f),
                           std::nextafter(static_cast<float>(25.3), 99.0f),
                           75.0f,
                           std::nextafter(75.0f, 99.0f)};
  const std::int64_t t_salt[] = {std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max(),
                                 999,  1000, 1001,
                                 4999, 5000, 5001};
  const auto pick = [&rng](const auto& salt, auto fallback) {
    return rng.NextUint64(8) == 0
               ? salt[rng.NextUint64(sizeof(salt) / sizeof(salt[0]))]
               : fallback;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const float x = pick(xy_salt, static_cast<float>(rng.NextDouble(0, 100)));
    const float y = pick(xy_salt, static_cast<float>(rng.NextDouble(0, 100)));
    const std::int64_t t = pick(t_salt, rng.NextInt(0, 8000));
    const float fare =
        pick(attr_salt, static_cast<float>(rng.NextDouble(0, 40)));
    const float distance =
        pick(attr_salt, static_cast<float>(rng.NextDouble(0, 5)));
    EXPECT_TRUE(table.AppendRow(x, y, t, {fare, distance}).ok());
  }
  return table;
}

/// Every combination of the four conjuncts, plus filters that select
/// nothing.
std::vector<FilterSpec> Specs() {
  std::vector<FilterSpec> specs;
  for (int bits = 0; bits < 16; ++bits) {
    FilterSpec spec;
    if (bits & 1) spec.WithTime(1000, 5000);
    if (bits & 2) spec.WithWindow(geometry::BoundingBox(25.3, 10.0, 75.0, 60.0));
    if (bits & 4) spec.WithRange("fare", 10.0, 20.0);
    if (bits & 8) spec.WithRange("distance", 2.3, 4.0);
    specs.push_back(spec);
  }
  specs.push_back(FilterSpec().WithTime(5000, 5000));
  specs.push_back(FilterSpec().WithTime(5000, 1000));
  specs.push_back(FilterSpec().WithRange("fare", 100.0, 200.0));
  specs.push_back(
      FilterSpec().WithWindow(geometry::BoundingBox(200, 200, 300, 300)));
  return specs;
}

/// Candidate sets over n rows: ranges that start and end mid-chunk, cross
/// chunk boundaries, touch each other (coalesced by RowRangeSet), and none.
std::vector<std::optional<RowRangeSet>> CandidateSets(std::size_t n) {
  std::vector<std::optional<RowRangeSet>> sets;
  sets.push_back(std::nullopt);
  sets.push_back(RowRangeSet());
  const std::uint64_t rows = n;
  sets.push_back(RowRangeSet({{rows / 3, rows / 3 + 1}}));
  sets.push_back(RowRangeSet(
      {{0, rows / 5}, {rows / 5, rows / 2}, {rows / 2 + 7, rows}}));
  sets.push_back(RowRangeSet({{5, 4090}, {4100, 4101}, {4103, 8200},
                              {8300, 12289}, {12290, rows + 100}}));
  return sets;
}

TEST(EvaluateFilterSimdTest, EqualsRowReferenceAtEveryLevel) {
  for (const std::size_t n : {0, 1, 4095, 4097, 3 * 4096 + 37}) {
    const data::PointTable table = SaltedTable(n, 0x5EED + n);
    for (const FilterSpec& spec : Specs()) {
      for (const std::optional<RowRangeSet>& set : CandidateSets(n)) {
        const RowRangeSet* candidates = set ? &*set : nullptr;
        const FilterSelection expected = Reference(spec, table, candidates);
        for (const raster::SimdLevel level : AvailableLevels()) {
          ScopedSimdLevel scoped(level);
          const auto got = EvaluateFilter(spec, table, candidates);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_EQ(got->bitmap, expected.bitmap)
              << raster::SimdLevelName(level) << " n=" << n;
          ASSERT_EQ(got->ids, expected.ids)
              << raster::SimdLevelName(level) << " n=" << n;
        }
      }
    }
  }
}

/// The strided row-wise fraction EstimateFilterSelectivity promises: every
/// ceil(n / 65536)-th row from row 0.
double StridedFraction(const FilterSpec& spec, const data::PointTable& table) {
  const std::size_t n = table.size();
  const std::size_t stride = n <= 65536 ? 1 : (n + 65535) / 65536;
  std::size_t tested = 0;
  std::size_t matched = 0;
  for (std::size_t row = 0; row < n; row += stride) {
    ++tested;
    matched += RowPasses(spec, table, row) ? 1 : 0;
  }
  return static_cast<double>(matched) / static_cast<double>(tested);
}

TEST(EvaluateFilterSimdTest, SelectivityEstimateEqualsStridedReference) {
  for (const std::size_t n : {9001, 150001}) {
    const data::PointTable table = SaltedTable(n, 0xE57 + n);
    for (const FilterSpec& spec : Specs()) {
      const double expected = StridedFraction(spec, table);
      if (n <= 65536) {
        // Below the sample size the estimate is the exact fraction.
        const FilterSelection all = Reference(spec, table, nullptr);
        EXPECT_EQ(expected, static_cast<double>(all.ids.size()) /
                                static_cast<double>(n));
      }
      for (const raster::SimdLevel level : AvailableLevels()) {
        ScopedSimdLevel scoped(level);
        const auto estimate = EstimateFilterSelectivity(spec, table);
        ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
        EXPECT_EQ(*estimate, expected)
            << raster::SimdLevelName(level) << " n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace urbane::core
