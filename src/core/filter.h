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

/// Filter evaluation output shared by all executors: a dense row bitmap and
/// the surviving row ids.
struct FilterSelection {
  std::vector<std::uint8_t> bitmap;   // size == table.size()
  std::vector<std::uint32_t> ids;     // rows where bitmap != 0
};

/// Evaluates the filter over every row, or — zone-map-aware — only over
/// the rows in `candidates` (null = all rows). Pruned rows cannot match the
/// filter, so the selection is identical to the unpruned evaluation; the
/// pruning only saves the work. Ids come out ascending.
///
/// Evaluation is column at a time over chunks of 4,096 rows: a chunk's
/// slice of the bitmap starts at 1, each conjunct (time range, spatial
/// window, each attribute range) ANDs its column into that slice through a
/// predicate kernel of raster::RasterKernels (same bits at every SIMD
/// level), and the chunk's ids are collected from the slice 8 bytes at a
/// time. A row passes when t is in [begin, end), (x, y) lies in the closed
/// window compared in double, and every attribute v satisfies
/// v >= lo && v <= hi with the bounds rounded to float (NaN fails).
/// The only code that decides whether a row passes: every executor calls
/// it once per query, timed as `filter_seconds`. Fails on an unknown
/// attribute, an empty attribute range or an empty spatial window.
StatusOr<FilterSelection> EvaluateFilter(
    const FilterSpec& spec, const data::PointTable& table,
    const RowRangeSet* candidates = nullptr);

/// Planning-time selectivity estimate: gathers an evenly strided sample of
/// at most 65,536 rows one 4,096-row chunk at a time and runs it through
/// EvaluateFilter's predicate kernels — no table-sized bitmap or id vector
/// is materialized, so the cost is O(min(n, 65536)) time and O(1) memory
/// (vs the O(n) allocation of EvaluateFilter). Exact when the table fits in
/// the sample; deterministic either way (stride sampling, no RNG).
StatusOr<double> EstimateFilterSelectivity(const FilterSpec& spec,
                                           const data::PointTable& table);

}  // namespace urbane::core

#endif  // URBANE_CORE_FILTER_H_
