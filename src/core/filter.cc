#include "core/filter.h"

#include <algorithm>
#include <cstring>

#include "raster/kernels.h"

namespace urbane::core {
namespace {

/// Rows EstimateFilterSelectivity tests at most.
constexpr std::size_t kSelectivitySampleRows = 65536;

/// Rows per chunk: a chunk's mask stays in L1 while every conjunct ANDs
/// into it and its ids are collected.
constexpr std::size_t kChunkRows = 4096;

/// Rows [begin, begin + n) of a table, read in place.
struct TableSlice {
  const data::PointTable& table;
  std::size_t begin;

  const std::int64_t* ts() const { return table.ts() + begin; }
  const float* xs() const { return table.xs() + begin; }
  const float* ys() const { return table.ys() + begin; }
  const float* attribute(std::size_t col) const {
    return table.attribute_data(col) + begin;
  }
};

/// Rows first, first + stride, ... (`count` of them, at most kChunkRows) of
/// a table, gathered column by column into contiguous buffers on demand.
class StridedSlice {
 public:
  StridedSlice(const data::PointTable& table, std::size_t stride)
      : table_(table), stride_(stride) {}

  void Seek(std::size_t first, std::size_t count) {
    first_ = first;
    count_ = count;
  }

  const std::int64_t* ts() { return Gather(table_.ts(), ts_); }
  const float* xs() { return Gather(table_.xs(), xs_); }
  const float* ys() { return Gather(table_.ys(), ys_); }
  const float* attribute(std::size_t col) {
    return Gather(table_.attribute_data(col), attribute_);
  }

 private:
  template <typename T>
  const T* Gather(const T* column, std::vector<T>& buffer) const {
    buffer.resize(count_);
    for (std::size_t j = 0; j < count_; ++j) {
      buffer[j] = column[first_ + j * stride_];
    }
    return buffer.data();
  }

  const data::PointTable& table_;
  const std::size_t stride_;
  std::size_t first_ = 0;
  std::size_t count_ = 0;
  std::vector<std::int64_t> ts_;
  std::vector<float> xs_;
  std::vector<float> ys_;
  std::vector<float> attribute_;
};

/// FilterSpec resolved against a concrete schema (attribute names bound to
/// column indices): the conjuncts behind EvaluateFilter and
/// EstimateFilterSelectivity.
class CompiledFilter {
 public:
  /// Fails on an unknown attribute, an empty attribute range or an empty
  /// spatial window.
  static StatusOr<CompiledFilter> Compile(const FilterSpec& spec,
                                          const data::PointTable& table);

  /// ANDs every conjunct into mask[0, n), where `rows` yields the n rows'
  /// columns (a TableSlice or a StridedSlice).
  template <typename Rows>
  void AndInto(const raster::RasterKernels& kernels, Rows& rows,
               std::size_t n, std::uint8_t* mask) const {
    if (time_range_) {
      kernels.and_time_range(rows.ts(), n, time_range_->begin,
                             time_range_->end, mask);
    }
    if (window_) {
      kernels.and_window(*window_, rows.xs(), rows.ys(), n, mask);
    }
    for (const BoundRange& range : ranges_) {
      kernels.and_float_range(rows.attribute(range.column), n, range.lo,
                              range.hi, mask);
    }
  }

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

/// Writes base + i for every nonzero byte of the 0/1 mask[0, n) to `out`
/// (room for n entries), ascending, and returns how many. An all-zero
/// 8-byte word costs one test; a word with set bytes is written without
/// branches.
std::size_t CollectIds(const std::uint8_t* mask, std::size_t n,
                       std::uint32_t base, std::uint32_t* out) {
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, mask + i, sizeof(word));
    if (word == 0) continue;
    for (std::size_t k = 0; k < 8; ++k) {
      out[count] = base + static_cast<std::uint32_t>(i + k);
      count += mask[i + k];
    }
  }
  for (; i < n; ++i) {
    out[count] = base + static_cast<std::uint32_t>(i);
    count += mask[i];
  }
  return count;
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
  const std::size_t tested = (n + stride - 1) / stride;
  const raster::RasterKernels& kernels = raster::ActiveKernels();
  StridedSlice sample(table, stride);
  std::vector<std::uint8_t> mask;
  std::size_t matched = 0;
  for (std::size_t j = 0; j < tested; j += kChunkRows) {
    const std::size_t count = std::min(kChunkRows, tested - j);
    sample.Seek(j * stride, count);
    mask.assign(count, 1);
    compiled.AndInto(kernels, sample, count, mask.data());
    for (const std::uint8_t bit : mask) {
      matched += bit;
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
  const raster::RasterKernels& kernels = raster::ActiveKernels();
  std::vector<std::uint32_t> chunk_ids(kChunkRows);
  // Each chunk's slice of the bitmap starts at 1, every conjunct ANDs its
  // column into it, and the survivors' ids are appended in row order.
  const auto evaluate = [&](std::size_t begin, std::size_t end) {
    for (; begin < end; begin += kChunkRows) {
      const std::size_t len = std::min(kChunkRows, end - begin);
      std::uint8_t* mask = selection.bitmap.data() + begin;
      std::memset(mask, 1, len);
      TableSlice rows{table, begin};
      compiled.AndInto(kernels, rows, len, mask);
      const std::size_t found = CollectIds(
          mask, len, static_cast<std::uint32_t>(begin), chunk_ids.data());
      selection.ids.insert(selection.ids.end(), chunk_ids.begin(),
                           chunk_ids.begin() + found);
    }
  };
  if (candidates == nullptr) {
    evaluate(0, n);
  } else {
    for (const RowRange& range : candidates->ranges()) {
      evaluate(std::min<std::uint64_t>(range.begin, n),
               std::min<std::uint64_t>(range.end, n));
    }
  }
  return selection;
}

}  // namespace urbane::core
