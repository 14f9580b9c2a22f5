#include "core/filter.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "testing/test_worlds.h"

namespace urbane::core {
namespace {

data::PointTable SmallTable() {
  data::PointTable table(data::Schema({"v"}));
  // (x, y, t, v)
  EXPECT_TRUE(table.AppendRow(0, 0, 100, {1.0f}).ok());
  EXPECT_TRUE(table.AppendRow(0, 0, 200, {5.0f}).ok());
  EXPECT_TRUE(table.AppendRow(0, 0, 300, {-3.0f}).ok());
  return table;
}

TEST(FilterSpecTest, BuilderChains) {
  FilterSpec spec;
  spec.WithTime(0, 10).WithRange("a", 1, 2).WithRange("b", 3, 4);
  ASSERT_TRUE(spec.time_range.has_value());
  EXPECT_EQ(spec.attribute_ranges.size(), 2u);
  EXPECT_FALSE(spec.IsTrivial());
  EXPECT_TRUE(FilterSpec().IsTrivial());
}

TEST(TimeRangeTest, HalfOpenSemantics) {
  const TimeRange range{100, 200};
  EXPECT_TRUE(range.Contains(100));
  EXPECT_TRUE(range.Contains(199));
  EXPECT_FALSE(range.Contains(200));
  EXPECT_FALSE(range.Contains(99));
}

TEST(CompiledFilterTest, TimeOnly) {
  const data::PointTable table = SmallTable();
  FilterSpec spec;
  spec.WithTime(150, 300);
  const auto selection = EvaluateFilter(spec, table);
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection->bitmap[0], 0);
  EXPECT_EQ(selection->bitmap[1], 1);
  EXPECT_EQ(selection->bitmap[2], 0);  // 300 excluded (half-open)
}

TEST(CompiledFilterTest, AttributeRangeClosed) {
  const data::PointTable table = SmallTable();
  FilterSpec spec;
  spec.WithRange("v", 1.0, 5.0);
  const auto selection = EvaluateFilter(spec, table);
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection->bitmap[0], 1);  // v == 1 (closed lower)
  EXPECT_EQ(selection->bitmap[1], 1);  // v == 5 (closed upper)
  EXPECT_EQ(selection->bitmap[2], 0);  // v == -3
}

TEST(CompiledFilterTest, ConjunctionOfConditions) {
  const data::PointTable table = SmallTable();
  FilterSpec spec;
  spec.WithTime(0, 250).WithRange("v", 0.0, 10.0);
  const auto selection = EvaluateFilter(spec, table);
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection->bitmap[0], 1);
  EXPECT_EQ(selection->bitmap[1], 1);
  EXPECT_EQ(selection->bitmap[2], 0);  // fails both
}

TEST(CompiledFilterTest, UnknownAttributeRejected) {
  const data::PointTable table = SmallTable();
  FilterSpec spec;
  spec.WithRange("nope", 0, 1);
  EXPECT_EQ(EvaluateFilter(spec, table).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CompiledFilterTest, EmptyRangeRejected) {
  const data::PointTable table = SmallTable();
  FilterSpec spec;
  spec.WithRange("v", 5.0, 1.0);
  EXPECT_EQ(EvaluateFilter(spec, table).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EvaluateFilterTest, TrivialFilterSelectsAll) {
  const data::PointTable table = SmallTable();
  const auto selection = EvaluateFilter(FilterSpec(), table);
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection->ids.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(selection->bitmap[i], 1);
    EXPECT_EQ(selection->ids[i], i);
  }
}

// A NaN attribute lies in no closed range, not even an unbounded one: the
// rule the store's zone maps prune by (see ZoneMapIndex).
TEST(EvaluateFilterTest, NanRowFailsAttributeRange) {
  data::PointTable table = SmallTable();
  ASSERT_TRUE(
      table.AppendRow(0, 0, 400, {std::numeric_limits<float>::quiet_NaN()})
          .ok());
  for (const auto& [lo, hi] :
       {std::pair<double, double>{-10.0, 10.0},
        {-std::numeric_limits<double>::infinity(),
         std::numeric_limits<double>::infinity()}}) {
    FilterSpec spec;
    spec.WithRange("v", lo, hi);
    const auto selection = EvaluateFilter(spec, table);
    ASSERT_TRUE(selection.ok());
    EXPECT_EQ(selection->bitmap[3], 0) << "[" << lo << ", " << hi << "]";
    EXPECT_EQ(selection->ids, (std::vector<std::uint32_t>{0, 1, 2}));
  }
}

TEST(EvaluateFilterTest, BitmapAndIdsConsistent) {
  const data::PointTable table = testing::MakeUniformPoints(2000, 3);
  FilterSpec spec;
  spec.WithRange("v", 0.0, 10.0);  // ~half the points
  const auto selection = EvaluateFilter(spec, table);
  ASSERT_TRUE(selection.ok());
  std::size_t bit_count = 0;
  for (const auto bit : selection->bitmap) {
    bit_count += bit;
  }
  EXPECT_EQ(bit_count, selection->ids.size());
  EXPECT_GT(selection->ids.size(), 700u);
  EXPECT_LT(selection->ids.size(), 1300u);
  for (const std::uint32_t id : selection->ids) {
    EXPECT_EQ(selection->bitmap[id], 1);
    EXPECT_GE(table.attribute(id, 0), 0.0f);
  }
}

TEST(CompiledFilterTest, SpatialWindow) {
  const data::PointTable table = testing::MakeUniformPoints(500, 9);
  FilterSpec spec;
  spec.WithWindow(geometry::BoundingBox(25, 25, 75, 75));
  const auto selection = EvaluateFilter(spec, table);
  ASSERT_TRUE(selection.ok());
  EXPECT_GT(selection->ids.size(), 0u);
  EXPECT_LT(selection->ids.size(), table.size());
  for (std::size_t id = 0; id < table.size(); ++id) {
    const bool inside = table.x(id) >= 25.0f && table.x(id) <= 75.0f &&
                        table.y(id) >= 25.0f && table.y(id) <= 75.0f;
    EXPECT_EQ(selection->bitmap[id], inside ? 1 : 0) << id;
  }
  for (const std::uint32_t id : selection->ids) {
    EXPECT_GE(table.x(id), 25.0f);
    EXPECT_LE(table.x(id), 75.0f);
    EXPECT_GE(table.y(id), 25.0f);
    EXPECT_LE(table.y(id), 75.0f);
  }
  // Roughly a quarter of a uniform square.
  EXPECT_NEAR(static_cast<double>(selection->ids.size()) /
                  static_cast<double>(table.size()),
              0.25, 0.08);
}

TEST(CompiledFilterTest, EmptyWindowRejected) {
  const data::PointTable table = testing::MakeUniformPoints(10, 9);
  FilterSpec spec;
  spec.spatial_window = geometry::BoundingBox();  // empty
  EXPECT_EQ(EvaluateFilter(spec, table).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FilterSpecTest, WindowMakesSpecNonTrivial) {
  FilterSpec spec;
  EXPECT_TRUE(spec.IsTrivial());
  spec.WithWindow(geometry::BoundingBox(0, 0, 1, 1));
  EXPECT_FALSE(spec.IsTrivial());
}

TEST(EvaluateFilterTest, SelectivityOfEmptyTable) {
  data::PointTable table(data::Schema({"v"}));
  const auto selection = EvaluateFilter(FilterSpec(), table);
  ASSERT_TRUE(selection.ok());
  EXPECT_TRUE(selection->bitmap.empty());
  EXPECT_TRUE(selection->ids.empty());
}

}  // namespace
}  // namespace urbane::core
