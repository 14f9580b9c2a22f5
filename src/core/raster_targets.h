#ifndef URBANE_CORE_RASTER_TARGETS_H_
#define URBANE_CORE_RASTER_TARGETS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "core/aggregate.h"
#include "core/filter.h"
#include "data/point_table.h"
#include "raster/buffer.h"
#include "raster/kernels.h"
#include "raster/morton.h"
#include "raster/point_splat.h"
#include "raster/rasterizer.h"
#include "raster/viewport.h"

namespace urbane::core::internal {

/// The points one query splats, gathered into contiguous arrays with their
/// framebuffer index precomputed once (SIMD, raster/kernels.h) and shared by
/// every render target — the seed path recomputed PixelForPoint per point
/// per target, up to five times for SUM with error bounds.
struct SplatSchedule {
  std::vector<std::uint32_t> ids;      // original rows, schedule order
  std::vector<std::uint32_t> indices;  // pixel index per position
                                       // (raster::kInvalidPixel = off canvas)
  bool morton = false;                 // schedule follows the Z-order curve
  std::size_t size() const { return ids.size(); }
};

/// Morton-ordered splats only pay off when the schedule covers most of the
/// dataset: walking the full Morton permutation costs O(table size), so a
/// sparse selection is cheaper in row order. The gate reads only sizes and
/// is therefore deterministic across SIMD levels.
inline bool UseMortonSchedule(const FilterSelection& selection,
                              std::size_t table_size) {
  return selection.ids.size() * 4 >= table_size;
}

/// Gathers the selected rows into a splat schedule — along the Z-order
/// curve when `morton` is built and the selection is dense enough, else in
/// ascending row order (the seed's order). The Morton key is pixel-granular
/// and the underlying sort is stable, so points of one pixel keep their row
/// order either way: per-pixel accumulation, and hence every query result,
/// is bit-identical under both schedules.
inline SplatSchedule BuildSplatSchedule(
    const raster::Viewport& vp, const data::PointTable& table,
    const FilterSelection& selection,
    const raster::MortonSplatOrder* morton) {
  SplatSchedule s;
  std::vector<float> xs;
  std::vector<float> ys;
  const std::size_t n = selection.ids.size();
  s.ids.reserve(n);
  xs.reserve(n);
  ys.reserve(n);
  if (morton != nullptr && morton->enabled() &&
      morton->size() == table.size() &&
      selection.bitmap.size() == table.size() &&
      UseMortonSchedule(selection, table.size())) {
    s.morton = true;
    const std::vector<std::uint32_t>& order = morton->ids();
    const std::vector<float>& mxs = morton->xs();
    const std::vector<float>& mys = morton->ys();
    for (std::size_t k = 0; k < order.size(); ++k) {
      const std::uint32_t id = order[k];
      if (!selection.bitmap[id]) continue;
      s.ids.push_back(id);
      xs.push_back(mxs[k]);
      ys.push_back(mys[k]);
    }
  } else {
    for (const std::uint32_t id : selection.ids) {
      s.ids.push_back(id);
      xs.push_back(table.xs()[id]);
      ys.push_back(table.ys()[id]);
    }
  }
  s.indices.resize(s.ids.size());
  raster::ComputeSplatIndices(vp, xs.data(), ys.data(), s.ids.size(),
                              s.indices.data());
  return s;
}

/// Per-pixel aggregate render targets produced by the point-splat pass
/// (pass 1 of Raster Join). Which targets exist depends on the aggregate:
/// COUNT -> count only; SUM/AVG -> count + sum; MIN/MAX -> count + min/max.
/// Sums are double (the GPU original blends float32), which keeps SUM/AVG
/// bit-comparable to the scan oracle.
struct AggregateTargets {
  raster::Buffer2D<std::uint32_t> count;
  raster::Buffer2D<double> sum;
  raster::Buffer2D<double> abs_sum;   // for SUM error bounds (optional)
  raster::Buffer2D<float> min_value;
  raster::Buffer2D<float> max_value;
  bool need_sum = false;
  bool need_minmax = false;
  bool need_abs_sum = false;
};

/// Render targets for the concurrent queries of one raster join's
/// region-side state: one set per query, however many point sources it
/// splats. Acquire hands out a free set when there is one — refilling
/// a warm set is several times cheaper than a fresh page-faulting
/// allocation, and the fused scatter first-touch-initializes value
/// targets, so most queries only clear the count plane — and allocates a
/// new set otherwise.
/// A lease returns its set when destroyed, so the pool never holds more
/// sets than the most queries that overlapped on it.
class TargetPool {
 public:
  struct Release {
    TargetPool* pool;
    void operator()(AggregateTargets* targets) const {
      std::lock_guard<std::mutex> lock(pool->mu_);
      pool->free_.emplace_back(targets);
    }
  };
  using Lease = std::unique_ptr<AggregateTargets, Release>;

  Lease Acquire() {
    std::unique_ptr<AggregateTargets> targets;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        targets = std::move(free_.back());
        free_.pop_back();
      }
    }
    if (targets == nullptr) {
      targets = std::make_unique<AggregateTargets>();
    }
    return Lease(targets.release(), Release{this});
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<AggregateTargets>> free_;
};

/// Reuses `buf` when the canvas size matches (refilled with `fill`),
/// reallocating otherwise. Refilling a warm buffer is several times cheaper
/// than a fresh allocation (no page faults), which is why the executors
/// lease their AggregateTargets from a TargetPool.
template <typename T>
inline void EnsureFilled(raster::Buffer2D<T>& buf, int w, int h, T fill) {
  if (buf.width() == w && buf.height() == h) {
    buf.Fill(fill);
  } else {
    buf = raster::Buffer2D<T>(w, h, fill);
  }
}

/// Like EnsureFilled but skips the refill: for targets whose scatter
/// initializes every pixel it touches on first touch (and whose readers are
/// gated on count > 0), stale contents are never observable.
template <typename T>
inline void EnsureAllocated(raster::Buffer2D<T>& buf, int w, int h) {
  if (buf.width() != w || buf.height() != h) {
    buf = raster::Buffer2D<T>(w, h);
  }
}

/// Fused scatter: one pass over the schedule feeds every live target.
/// Per pixel the accumulation sequence is exactly the per-target zero-init
/// loops' (first touch computes `identity op v`, later touches fold into the
/// stored value), so results are bit-identical to the unfused form while
/// value targets never need a whole-canvas clear. Returns hits.
inline std::size_t ScatterSchedule(AggregateTargets& t,
                                   const SplatSchedule& schedule,
                                   const float* attr) {
  const std::uint32_t* indices = schedule.indices.data();
  const std::size_t n = schedule.size();
  std::uint32_t* count = t.count.data().data();
  std::size_t hits = 0;
  if (!t.need_sum && !t.need_minmax) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t idx = indices[k];
      if (idx == raster::kInvalidPixel) continue;
      ++count[idx];
      ++hits;
    }
    return hits;
  }
  const bool need_sum = t.need_sum;
  const bool need_abs = t.need_abs_sum;
  const bool need_minmax = t.need_minmax;
  double* sum = t.sum.empty() ? nullptr : t.sum.data().data();
  double* abs_sum = t.abs_sum.empty() ? nullptr : t.abs_sum.data().data();
  float* min_v = t.min_value.empty() ? nullptr : t.min_value.data().data();
  float* max_v = t.max_value.empty() ? nullptr : t.max_value.data().data();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t idx = indices[k];
    if (idx == raster::kInvalidPixel) continue;
    const std::uint32_t c = ++count[idx];
    const float v = attr[schedule.ids[k]];
    const bool first = c == 1;
    if (need_sum) {
      sum[idx] = (first ? 0.0 : sum[idx]) + static_cast<double>(v);
      if (need_abs) {
        abs_sum[idx] = (first ? 0.0 : abs_sum[idx]) +
                       std::abs(static_cast<double>(v));
      }
    }
    if (need_minmax) {
      min_v[idx] = std::min(first ? kInf : min_v[idx], v);
      max_v[idx] = std::max(first ? -kInf : max_v[idx], v);
    }
    ++hits;
  }
  return hits;
}

/// Readies `t` (a leased set, reused across queries) for one query's
/// splats: sizes the targets the aggregate needs to the canvas and clears
/// the count plane. Value targets are first-touch-initialized by the fused
/// scatter, so they only need to exist — no whole-canvas clear. Every
/// source of the query then scatters its schedule into `t` in turn
/// (ScatterSchedule): a pixel's first touch is decided by the shared count
/// plane, so each pixel accumulates its points across sources in source
/// order.
inline void PrepareAggregateTargets(const raster::Viewport& vp,
                                    AggregateKind kind, bool need_abs_sum,
                                    AggregateTargets& t) {
  t.need_sum = kind == AggregateKind::kSum || kind == AggregateKind::kAvg;
  t.need_minmax = kind == AggregateKind::kMin || kind == AggregateKind::kMax;
  t.need_abs_sum = need_abs_sum && t.need_sum;

  const int w = vp.width();
  const int h = vp.height();
  EnsureFilled(t.count, w, h, 0u);
  if (t.need_sum) {
    EnsureAllocated(t.sum, w, h);
    if (t.need_abs_sum) EnsureAllocated(t.abs_sum, w, h);
  }
  if (t.need_minmax) {
    EnsureAllocated(t.min_value, w, h);
    EnsureAllocated(t.max_value, w, h);
  }
}

/// Folds one covered pixel into a region accumulator.
inline void AccumulatePixel(const AggregateTargets& t, int x, int y,
                            Accumulator& acc) {
  const std::uint32_t c = t.count.at(x, y);
  if (c == 0) {
    return;
  }
  acc.AddBulk(c, t.need_sum ? t.sum.at(x, y) : static_cast<double>(c) * 0.0);
  if (t.need_minmax) {
    acc.MergeMinMax(t.min_value.at(x, y), t.max_value.at(x, y));
  }
}

/// Folds one cached span into `acc`, bit-identical to running
/// AccumulatePixel over its pixels left to right:
///
///   * COUNT-only targets take the whole-span count sum in one AddBulk —
///     exact (u64 arithmetic) and order-free, since every per-pixel bulk
///     adds 0.0 to the float sum;
///   * targets with sums or min/max gather the nonzero columns (SIMD) and
///     accumulate them scalar, in ascending order — the float additions
///     happen in exactly the seed loop's sequence.
///
/// `scratch` must hold at least span-width entries. Returns the span's
/// point total (for points_bulk accounting).
inline std::uint64_t AccumulateSpan(const AggregateTargets& t,
                                    const raster::RasterKernels& kernels,
                                    const raster::PixelSpan& span,
                                    Accumulator& acc,
                                    std::uint32_t* scratch) {
  const std::uint32_t* row =
      t.count.Row(span.y) + static_cast<std::size_t>(span.x_begin);
  const std::size_t len =
      static_cast<std::size_t>(span.x_end - span.x_begin);
  if (!t.need_sum && !t.need_minmax) {
    const std::uint64_t total = kernels.sum_span_u32(row, len);
    if (total != 0) {
      acc.AddBulk(total, 0.0);
    }
    return total;
  }
  std::uint64_t total = 0;
  const std::size_t hits = kernels.gather_nonzero_u32(row, len, scratch);
  for (std::size_t j = 0; j < hits; ++j) {
    const int x = span.x_begin + static_cast<int>(scratch[j]);
    total += row[scratch[j]];
    AccumulatePixel(t, x, span.y, acc);
  }
  return total;
}

/// Boundary-pixel dedup scratch: a stamp buffer avoids clearing a W*H
/// bitmap per region. BuildSweepGeometry owns one while it builds the
/// region span caches at Create; no query touches it.
class StampBuffer {
 public:
  StampBuffer() = default;
  explicit StampBuffer(std::size_t num_pixels) : stamp_(num_pixels, 0) {}

  /// Starts a new dedup scope; handles counter wrap by clearing.
  void NextScope() {
    ++current_;
    if (current_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      current_ = 1;
    }
  }

  /// Marks `idx`; returns true the first time it is seen in this scope.
  bool MarkOnce(std::size_t idx) {
    if (stamp_[idx] == current_) {
      return false;
    }
    stamp_[idx] = current_;
    return true;
  }

  /// True if `idx` was marked in the current scope.
  bool Marked(std::size_t idx) const { return stamp_[idx] == current_; }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t current_ = 0;
};

}  // namespace urbane::core::internal

#endif  // URBANE_CORE_RASTER_TARGETS_H_
