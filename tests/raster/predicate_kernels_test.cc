// Bit-identity suite for the filter's predicate kernels (and_time_range,
// and_float_range, and_window). The scalar table must equal the row-wise
// definitions — TimeRange::Contains, the ordered closed float range, and
// BoundingBox::Contains in double — and every SIMD level must equal the
// scalar table, on columns salted with the values where a vector compare
// could disagree: NaN, ±inf, ±0.0, the bounds and their neighbours, and the
// int64 extremes. Lengths straddle every vector width and the columns and
// masks start at unaligned addresses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/filter.h"
#include "geometry/bounding_box.h"
#include "raster/kernels.h"
#include "raster/simd.h"
#include "util/random.h"

namespace urbane::raster {
namespace {

std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kOff};
  const int max = static_cast<int>(CpuMaxSimdLevel());
  if (max >= static_cast<int>(SimdLevel::kSse2)) {
    levels.push_back(SimdLevel::kSse2);
  }
  if (max >= static_cast<int>(SimdLevel::kAvx2)) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

constexpr std::size_t kLengths[] = {0, 1, 7, 8, 31, 33, 4097};
constexpr std::size_t kOffsets[] = {0, 1, 3};

/// A random 0/1 mask: the kernels AND into it, so rows already cleared
/// must stay cleared.
std::vector<std::uint8_t> RandomMask(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> mask(n);
  for (std::uint8_t& bit : mask) {
    bit = rng.NextUint64(5) == 0 ? 0 : 1;
  }
  return mask;
}

/// Random floats in [lo - spread, hi + spread], salted with the special
/// values and the bounds' float neighbours.
std::vector<float> SaltedFloats(Rng& rng, std::size_t n, double lo, double hi,
                                double spread) {
  const float inf = std::numeric_limits<float>::infinity();
  const float flo = static_cast<float>(lo);
  const float fhi = static_cast<float>(hi);
  const float salt[] = {std::numeric_limits<float>::quiet_NaN(),
                        -std::numeric_limits<float>::quiet_NaN(),
                        inf,
                        -inf,
                        0.0f,
                        -0.0f,
                        flo,
                        fhi,
                        std::nextafter(flo, -inf),
                        std::nextafter(flo, inf),
                        std::nextafter(fhi, -inf),
                        std::nextafter(fhi, inf),
                        std::numeric_limits<float>::denorm_min(),
                        -std::numeric_limits<float>::denorm_min()};
  std::vector<float> values(n);
  for (float& v : values) {
    if (rng.NextUint64(3) == 0) {
      v = salt[rng.NextUint64(sizeof(salt) / sizeof(salt[0]))];
    } else {
      v = static_cast<float>(rng.NextDouble(lo - spread, hi + spread));
    }
  }
  return values;
}

/// Checks the scalar table against `reference` (the row-wise definition
/// applied to `mask`) and every level against the scalar table. `run`
/// applies one kernel of the given table to a mask.
template <typename Run, typename Reference>
void ExpectAllLevelsMatch(const std::vector<std::uint8_t>& mask,
                          std::size_t offset, Run&& run,
                          Reference&& reference) {
  const std::size_t n = mask.size();
  std::vector<std::uint8_t> expected = mask;
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] &= reference(i) ? 1 : 0;
  }
  for (const SimdLevel level : AvailableLevels()) {
    // The mask too starts at an unaligned address.
    std::vector<std::uint8_t> buffer(offset + n + offset, 0xAB);
    std::copy(mask.begin(), mask.end(), buffer.begin() + offset);
    run(KernelsForLevel(level), buffer.data() + offset);
    const std::vector<std::uint8_t> got(buffer.begin() + offset,
                                        buffer.begin() + offset + n);
    ASSERT_EQ(got, expected) << SimdLevelName(level) << " n=" << n
                             << " offset=" << offset;
    // Bytes around the mask are untouched.
    for (std::size_t i = 0; i < offset; ++i) {
      ASSERT_EQ(buffer[i], 0xAB) << SimdLevelName(level);
      ASSERT_EQ(buffer[offset + n + i], 0xAB) << SimdLevelName(level);
    }
  }
}

TEST(PredicateKernels, TimeRangeMatchesContainsAtEveryLevel) {
  Rng rng(0x71AE);
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const core::TimeRange ranges[] = {
      {1000, 5000},  {-7, 7},        {kMin, kMax},  {kMin, 0},
      {0, kMax},     {5000, 5000},   {5000, 1000},  {kMax, kMin},
      {kMin, kMin + 1}, {kMax - 1, kMax}};
  for (const core::TimeRange range : ranges) {
    for (const std::size_t n : kLengths) {
      for (const std::size_t offset : kOffsets) {
        std::vector<std::int64_t> column(offset + n);
        const std::int64_t salt[] = {kMin,          kMin + 1,
                                     kMax,          kMax - 1,
                                     range.begin,   range.end,
                                     range.begin - (range.begin != kMin),
                                     range.begin + (range.begin != kMax),
                                     range.end - (range.end != kMin),
                                     range.end + (range.end != kMax),
                                     0,             -1};
        for (std::int64_t& t : column) {
          t = rng.NextUint64(3) == 0
                  ? salt[rng.NextUint64(sizeof(salt) / sizeof(salt[0]))]
                  : rng.NextInt(-10000, 10000);
        }
        const std::int64_t* t = column.data() + offset;
        ExpectAllLevelsMatch(
            RandomMask(rng, n), offset,
            [&](const RasterKernels& k, std::uint8_t* mask) {
              k.and_time_range(t, n, range.begin, range.end, mask);
            },
            [&](std::size_t i) { return range.Contains(t[i]); });
      }
    }
  }
}

TEST(PredicateKernels, EmptyTimeRangeSelectsNothing) {
  const std::vector<std::int64_t> t = {std::numeric_limits<std::int64_t>::min(),
                                       -1, 0, 41, 42, 43,
                                       std::numeric_limits<std::int64_t>::max()};
  for (const SimdLevel level : AvailableLevels()) {
    for (const auto& [begin, end] :
         {std::pair<std::int64_t, std::int64_t>{42, 42}, {43, 41}}) {
      std::vector<std::uint8_t> mask(t.size(), 1);
      KernelsForLevel(level).and_time_range(t.data(), t.size(), begin, end,
                                            mask.data());
      EXPECT_EQ(mask, std::vector<std::uint8_t>(t.size(), 0))
          << SimdLevelName(level) << " [" << begin << ", " << end << ")";
    }
  }
}

TEST(PredicateKernels, FloatRangeMatchesOrderedCompareAtEveryLevel) {
  Rng rng(0xF10A7);
  const float inf = std::numeric_limits<float>::infinity();
  const std::pair<float, float> ranges[] = {
      {1.5f, 4.25f}, {-2.0f, 2.0f}, {0.0f, 0.0f},   {-0.0f, 0.0f},
      {-inf, inf},   {-inf, 0.0f},  {3.0f, inf},    {7.0f, 7.0f},
      {std::nextafter(1.0f, 2.0f), std::nextafter(1.0f, 2.0f)}};
  for (const auto& [lo, hi] : ranges) {
    for (const std::size_t n : kLengths) {
      for (const std::size_t offset : kOffsets) {
        const std::vector<float> column =
            SaltedFloats(rng, offset + n, std::isfinite(lo) ? lo : -10.0,
                         std::isfinite(hi) ? hi : 10.0, 3.0);
        const float* v = column.data() + offset;
        ExpectAllLevelsMatch(
            RandomMask(rng, n), offset,
            [&](const RasterKernels& k, std::uint8_t* mask) {
              k.and_float_range(v, n, lo, hi, mask);
            },
            [&](std::size_t i) { return v[i] >= lo && v[i] <= hi; });
      }
    }
  }
}

TEST(PredicateKernels, NanFailsEveryFloatRange) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> v(37, std::numeric_limits<float>::quiet_NaN());
  for (const SimdLevel level : AvailableLevels()) {
    std::vector<std::uint8_t> mask(v.size(), 1);
    KernelsForLevel(level).and_float_range(v.data(), v.size(), -inf, inf,
                                           mask.data());
    EXPECT_EQ(mask, std::vector<std::uint8_t>(v.size(), 0))
        << SimdLevelName(level);
  }
}

TEST(PredicateKernels, WindowMatchesBoundingBoxContainsAtEveryLevel) {
  Rng rng(0x814D);
  const double inf = std::numeric_limits<double>::infinity();
  // Bounds that are not floats (25.3, 74.9) catch a kernel that rounds the
  // box to float instead of widening the coordinates to double.
  const geometry::BoundingBox windows[] = {
      {25.3, 10.1, 74.9, 60.7}, {0.0, 0.0, 100.0, 100.0},
      {-0.0, -5.0, 0.0, 5.0},   {-inf, -inf, inf, inf},
      {50.0, 50.0, 50.0, 50.0}, {-1e300, 3.0, 1e300, 3.0000001}};
  for (const geometry::BoundingBox& box : windows) {
    for (const std::size_t n : kLengths) {
      for (const std::size_t offset : kOffsets) {
        const auto axis = [](double lo) {
          return std::isfinite(lo) && std::abs(lo) < 1e30 ? lo : 0.0;
        };
        const std::vector<float> xs = SaltedFloats(
            rng, offset + n, axis(box.min_x), axis(box.max_x), 5.0);
        const std::vector<float> ys = SaltedFloats(
            rng, offset + n, axis(box.min_y), axis(box.max_y), 5.0);
        const float* x = xs.data() + offset;
        const float* y = ys.data() + offset;
        ExpectAllLevelsMatch(
            RandomMask(rng, n), offset,
            [&](const RasterKernels& k, std::uint8_t* mask) {
              k.and_window(box, x, y, n, mask);
            },
            [&](std::size_t i) { return box.Contains({x[i], y[i]}); });
      }
    }
  }
}

}  // namespace
}  // namespace urbane::raster
