#ifndef URBANE_CORE_ZONE_MAP_H_
#define URBANE_CORE_ZONE_MAP_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/filter.h"
#include "core/row_range.h"
#include "data/schema.h"
#include "geometry/bounding_box.h"
#include "util/status.h"

namespace urbane::core {

/// Per-block column statistics from the store footer: the spatial bbox,
/// time min/max, and per-attribute min/max of one contiguous row block.
/// Empty or all-NaN columns carry inverted extents (min > max), which every
/// pruning comparison naturally rejects.
struct BlockZoneMap {
  std::uint64_t row_begin = 0;
  std::uint64_t row_count = 0;
  float min_x = 0.0f;
  float max_x = 0.0f;
  float min_y = 0.0f;
  float max_y = 0.0f;
  std::int64_t min_t = 0;
  std::int64_t max_t = 0;
  std::vector<float> attr_min;  // one entry per schema attribute
  std::vector<float> attr_max;

  std::uint64_t row_end() const { return row_begin + row_count; }
};

/// Outcome of pruning one filter against the block footer.
struct PruneResult {
  RowRangeSet candidates;          // rows the filter might match
  std::uint64_t blocks_total = 0;
  std::uint64_t blocks_pruned = 0;
  std::uint64_t rows_pruned = 0;
};

/// The block footer as a queryable index. A block survives pruning iff the
/// filter's constraints all overlap its zone map:
///
///   * time [begin, end):    min_t < end  &&  max_t >= begin
///   * window (closed box):  block bbox intersects the window
///   * attribute [lo, hi]:   attr_min <= hi  &&  attr_max >= lo
///
/// Every pruned row therefore fails the row-level filter too, so skipping
/// pruned blocks removes only rows that contribute nothing to any
/// accumulator — executor results are bit-identical with and without
/// pruning, at every shard count.
class ZoneMapIndex {
 public:
  /// Validates that the blocks tile [0, total_rows) contiguously and carry
  /// `attribute_count` min/max entries each.
  static StatusOr<ZoneMapIndex> Create(std::vector<BlockZoneMap> blocks,
                                       std::size_t attribute_count);

  /// Blocks the filter cannot rule out, coalesced into row ranges.
  /// Attribute names that do not resolve in `schema` do not prune (the
  /// executor's own filter compile reports them as errors).
  PruneResult Prune(const FilterSpec& spec, const data::Schema& schema) const;

  /// Fraction of rows surviving Prune, in [0, 1] — the planner's zone-map
  /// selectivity bound (the true selectivity can only be lower).
  double CandidateFraction(const FilterSpec& spec,
                           const data::Schema& schema) const;

  std::size_t block_count() const { return blocks_.size(); }
  std::uint64_t total_rows() const { return total_rows_; }
  const std::vector<BlockZoneMap>& blocks() const { return blocks_; }

  /// Union of block bboxes. Bit-exact with PointTable::Bounds() over the
  /// same rows: both fold the same f32 extents through double Extend.
  geometry::BoundingBox Bounds() const;

  /// Union of block time extents; {0, 0} when empty.
  std::pair<std::int64_t, std::int64_t> TimeRange() const;

 private:
  std::vector<BlockZoneMap> blocks_;
  std::uint64_t total_rows_ = 0;
};

}  // namespace urbane::core

#endif  // URBANE_CORE_ZONE_MAP_H_
