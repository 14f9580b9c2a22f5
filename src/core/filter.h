#ifndef URBANE_CORE_FILTER_H_
#define URBANE_CORE_FILTER_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/row_range.h"
#include "data/point_table.h"
#include "geometry/bounding_box.h"
#include "util/status.h"

namespace urbane::core {

/// Closed attribute range predicate: lo <= value <= hi.
struct AttributeRange {
  std::string attribute;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
};

/// Half-open time range [begin, end).
struct TimeRange {
  std::int64_t begin = 0;
  std::int64_t end = 0;

  bool Contains(std::int64_t t) const { return t >= begin && t < end; }
};

/// The ad-hoc [AND filterCondition]* of the paper's query: a conjunction of
/// an optional time range and any number of attribute ranges. These are
/// exactly the constraints pre-aggregation cubes cannot serve, which is why
/// the paper evaluates everything on the fly.
struct FilterSpec {
  std::optional<TimeRange> time_range;
  std::vector<AttributeRange> attribute_ranges;
  /// Spatial window on the implicit x/y columns (closed box). This is how
  /// Urbane's zoomed camera restricts queries to the visible viewport; it
  /// composes with every executor like any other conjunct.
  std::optional<geometry::BoundingBox> spatial_window;

  bool IsTrivial() const {
    return !time_range.has_value() && attribute_ranges.empty() &&
           !spatial_window.has_value();
  }

  FilterSpec& WithTime(std::int64_t begin, std::int64_t end) {
    time_range = TimeRange{begin, end};
    return *this;
  }
  FilterSpec& WithRange(std::string attribute, double lo, double hi) {
    attribute_ranges.push_back({std::move(attribute), lo, hi});
    return *this;
  }
  FilterSpec& WithWindow(const geometry::BoundingBox& window) {
    spatial_window = window;
    return *this;
  }
};

/// FilterSpec resolved against a concrete schema (attribute names bound to
/// column indices). Immutable after construction.
class CompiledFilter {
 public:
  /// Fails if an attribute name is unknown.
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

/// Filter evaluation output shared by all executors: a dense row bitmap and
/// the surviving row ids.
struct FilterSelection {
  std::vector<std::uint8_t> bitmap;   // size == table.size()
  std::vector<std::uint32_t> ids;     // rows where bitmap != 0

  std::size_t passing() const { return ids.size(); }
  double Selectivity(std::size_t total) const {
    return total == 0 ? 0.0
                      : static_cast<double>(ids.size()) /
                            static_cast<double>(total);
  }
};

/// Evaluates the filter over every row, or — zone-map-aware — only over
/// the rows in `candidates` (null = all rows). Pruned rows cannot match the
/// filter, so the selection is identical to the unpruned evaluation; the
/// pruning only saves the per-row work. Ids come out ascending.
StatusOr<FilterSelection> EvaluateFilter(
    const FilterSpec& spec, const data::PointTable& table,
    const RowRangeSet* candidates = nullptr);

/// Planning-time selectivity estimate: compiles the filter and counts
/// matches over an evenly strided sample of at most `max_sample` rows — no
/// bitmap or id vector is materialized, so the cost is O(min(n, max_sample))
/// time and O(1) memory (vs the O(n) allocation of EvaluateFilter). Exact
/// when the table fits in the sample; deterministic either way (stride
/// sampling, no RNG).
StatusOr<double> EstimateFilterSelectivity(const FilterSpec& spec,
                                           const data::PointTable& table,
                                           std::size_t max_sample = 65536);

}  // namespace urbane::core

#endif  // URBANE_CORE_FILTER_H_
