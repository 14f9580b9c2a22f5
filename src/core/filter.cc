#include "core/filter.h"

namespace urbane::core {
namespace {

/// Rows EstimateFilterSelectivity tests at most.
constexpr std::size_t kSelectivitySampleRows = 65536;

/// FilterSpec resolved against a concrete schema (attribute names bound to
/// column indices): the row test behind EvaluateFilter and
/// EstimateFilterSelectivity.
class CompiledFilter {
 public:
  /// Fails on an unknown attribute, an empty attribute range or an empty
  /// spatial window.
  static StatusOr<CompiledFilter> Compile(const FilterSpec& spec,
                                          const data::PointTable& table);

  /// Row-level predicate.
  bool Matches(const data::PointTable& table, std::size_t row) const;

  bool IsTrivial() const {
    return !time_range_ && ranges_.empty() && !window_;
  }

 private:
  struct BoundRange {
    std::size_t column;
    float lo;
    float hi;
  };

  std::optional<TimeRange> time_range_;
  std::vector<BoundRange> ranges_;
  std::optional<geometry::BoundingBox> window_;
};

StatusOr<CompiledFilter> CompiledFilter::Compile(
    const FilterSpec& spec, const data::PointTable& table) {
  CompiledFilter compiled;
  compiled.time_range_ = spec.time_range;
  if (spec.spatial_window) {
    if (spec.spatial_window->IsEmpty()) {
      return Status::InvalidArgument("empty spatial window");
    }
    compiled.window_ = spec.spatial_window;
  }
  for (const AttributeRange& range : spec.attribute_ranges) {
    const int col = table.schema().AttributeIndex(range.attribute);
    if (col < 0) {
      return Status::InvalidArgument("filter references unknown attribute: " +
                                     range.attribute);
    }
    if (range.lo > range.hi) {
      return Status::InvalidArgument("empty filter range on attribute: " +
                                     range.attribute);
    }
    compiled.ranges_.push_back({static_cast<std::size_t>(col),
                                static_cast<float>(range.lo),
                                static_cast<float>(range.hi)});
  }
  return compiled;
}

bool CompiledFilter::Matches(const data::PointTable& table,
                             std::size_t row) const {
  if (time_range_ && !time_range_->Contains(table.t(row))) {
    return false;
  }
  if (window_ && !window_->Contains({table.x(row), table.y(row)})) {
    return false;
  }
  for (const BoundRange& range : ranges_) {
    // Written so that NaN fails: a NaN row lies in no range, which is the
    // rule the store's zone maps prune by.
    const float v = table.attribute(row, range.column);
    if (!(v >= range.lo && v <= range.hi)) {
      return false;
    }
  }
  return true;
}

}  // namespace

StatusOr<double> EstimateFilterSelectivity(const FilterSpec& spec,
                                           const data::PointTable& table) {
  URBANE_ASSIGN_OR_RETURN(CompiledFilter compiled,
                          CompiledFilter::Compile(spec, table));
  const std::size_t n = table.size();
  if (n == 0) {
    return 0.0;
  }
  if (compiled.IsTrivial()) {
    return 1.0;
  }
  const std::size_t stride =
      n <= kSelectivitySampleRows
          ? 1
          : (n + kSelectivitySampleRows - 1) / kSelectivitySampleRows;
  std::size_t tested = 0;
  std::size_t matched = 0;
  for (std::size_t i = 0; i < n; i += stride) {
    ++tested;
    if (compiled.Matches(table, i)) {
      ++matched;
    }
  }
  return static_cast<double>(matched) / static_cast<double>(tested);
}

StatusOr<FilterSelection> EvaluateFilter(const FilterSpec& spec,
                                         const data::PointTable& table,
                                         const RowRangeSet* candidates) {
  URBANE_ASSIGN_OR_RETURN(CompiledFilter compiled,
                          CompiledFilter::Compile(spec, table));
  FilterSelection selection;
  const std::size_t n = table.size();
  selection.bitmap.assign(n, 0);
  if (compiled.IsTrivial() && candidates == nullptr) {
    selection.ids.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      selection.bitmap[i] = 1;
      selection.ids[i] = static_cast<std::uint32_t>(i);
    }
    return selection;
  }
  selection.ids.reserve(n / 4);
  ForEachCandidateRow(candidates, 0, n, [&](std::uint64_t i) {
    if (compiled.Matches(table, i)) {
      selection.bitmap[i] = 1;
      selection.ids.push_back(static_cast<std::uint32_t>(i));
    }
  });
  return selection;
}

}  // namespace urbane::core
