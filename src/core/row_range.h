#ifndef URBANE_CORE_ROW_RANGE_H_
#define URBANE_CORE_ROW_RANGE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace urbane::core {

/// Half-open row interval [begin, end) over a point table's row space.
struct RowRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  std::uint64_t size() const { return end - begin; }
  bool operator==(const RowRange& other) const {
    return begin == other.begin && end == other.end;
  }
};

/// Sorted, disjoint, coalesced set of row ranges — the output of zone-map
/// pruning. EvaluateFilter walks only these ranges, and every executor
/// reads its rows from that one selection, so every executor skips exactly
/// the same pruned rows.
class RowRangeSet {
 public:
  RowRangeSet() = default;

  /// `ranges` must be sorted by begin, non-overlapping, and non-empty per
  /// element; adjacent ranges are coalesced here so the range walk touches
  /// as few intervals as possible.
  explicit RowRangeSet(std::vector<RowRange> ranges) {
    for (RowRange& r : ranges) {
      if (r.begin >= r.end) continue;
      if (!ranges_.empty() && ranges_.back().end == r.begin) {
        ranges_.back().end = r.end;
      } else {
        ranges_.push_back(r);
      }
      total_rows_ += r.size();
    }
  }

  const std::vector<RowRange>& ranges() const { return ranges_; }
  bool empty() const { return ranges_.empty(); }
  std::uint64_t total_rows() const { return total_rows_; }

 private:
  std::vector<RowRange> ranges_;
  std::uint64_t total_rows_ = 0;
};

/// The part of `ranges` inside [begin, end), shifted down by `begin`: the
/// candidate rows of one source whose rows sit at [begin, end) of a
/// concatenated row space, in the source's own row numbers.
inline RowRangeSet SliceRowRanges(const RowRangeSet& ranges,
                                  std::uint64_t begin, std::uint64_t end) {
  std::vector<RowRange> slice;
  for (const RowRange& range : ranges.ranges()) {
    const std::uint64_t lo = std::max(range.begin, begin);
    const std::uint64_t hi = std::min(range.end, end);
    if (lo < hi) slice.push_back({lo - begin, hi - begin});
  }
  return RowRangeSet(std::move(slice));
}

}  // namespace urbane::core

#endif  // URBANE_CORE_ROW_RANGE_H_
