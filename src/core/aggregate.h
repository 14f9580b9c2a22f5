#ifndef URBANE_CORE_AGGREGATE_H_
#define URBANE_CORE_AGGREGATE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/status.h"

namespace urbane::core {

/// Aggregate functions supported by the spatial aggregation query
/// (the AGG(a_i) of the paper's SELECT).
enum class AggregateKind {
  kCount,  // COUNT(*) — needs no attribute
  kSum,    // SUM(attribute)
  kAvg,    // AVG(attribute)
  kMin,    // MIN(attribute)
  kMax,    // MAX(attribute)
};

const char* AggregateKindToString(AggregateKind kind);

/// AGG + its attribute (ignored for COUNT).
struct AggregateSpec {
  AggregateKind kind = AggregateKind::kCount;
  std::string attribute;

  static AggregateSpec Count() { return {AggregateKind::kCount, ""}; }
  static AggregateSpec Sum(std::string attr) {
    return {AggregateKind::kSum, std::move(attr)};
  }
  static AggregateSpec Avg(std::string attr) {
    return {AggregateKind::kAvg, std::move(attr)};
  }
  static AggregateSpec Min(std::string attr) {
    return {AggregateKind::kMin, std::move(attr)};
  }
  static AggregateSpec Max(std::string attr) {
    return {AggregateKind::kMax, std::move(attr)};
  }

  bool NeedsAttribute() const { return kind != AggregateKind::kCount; }
};

/// Streaming accumulator covering all five aggregate kinds at once; cheap
/// enough that executors keep one per region.
struct Accumulator {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Add(double value) {
    ++count;
    sum += value;
    if (value < min) min = value;
    if (value > max) max = value;
  }

  /// Adds `n` points whose values sum to `value_sum` (bulk path used when an
  /// index cell / raster pixel is known to be fully inside a region). Only
  /// valid to finalize COUNT/SUM/AVG afterwards unless min/max are merged
  /// separately.
  void AddBulk(std::uint64_t n, double value_sum) {
    count += n;
    sum += value_sum;
  }

  void MergeMinMax(double other_min, double other_max) {
    if (other_min < min) min = other_min;
    if (other_max > max) max = other_max;
  }

  void Merge(const Accumulator& other) {
    count += other.count;
    sum += other.sum;
    MergeMinMax(other.min, other.max);
  }

  /// Final value under `kind`; empty groups yield 0 for COUNT/SUM and NaN
  /// for AVG/MIN/MAX (SQL semantics would use NULL).
  double Finalize(AggregateKind kind) const;
};

/// Result of one spatial aggregation query — a PartialResult finalized
/// under the query's aggregate: one value per region, in region order, plus
/// the per-region matching point count (always maintained — the map view
/// uses it for context) and, for the bounded raster join, a per-region
/// error bound.
struct QueryResult {
  std::vector<double> values;
  std::vector<std::uint64_t> counts;
  /// BoundedRasterJoin only; empty for exact executors. Semantics by
  /// aggregate: COUNT — |value - exact| <= bound (number of points in the
  /// region's boundary pixels); SUM — |value - exact| <= bound (sum of
  /// |attribute| over boundary-pixel points); AVG/MIN/MAX — the bound is
  /// the boundary point count, a diagnostic for how many points may be
  /// misattributed (no closed-form error bound exists for those).
  std::vector<double> error_bounds;

  std::size_t size() const { return values.size(); }
};

/// The unfinalized result every executor produces and every merge consumes:
/// one accumulator per region (region order) plus, for the bounded raster
/// join, the per-region error bounds (QueryResult::error_bounds semantics
/// for the query's aggregate). A sharded pass and the facade answer one
/// query from several partials over disjoint row subsets — shards, a scan
/// or index query's row components — folded with Merge in a fixed order
/// and finalized once,
/// so AVG divides the summed (sum, count) pairs, never averages averages.
struct PartialResult {
  std::vector<Accumulator> regions;
  std::vector<double> error_bounds;

  /// Folds `other` into this partial: accumulators merge region by region
  /// (Accumulator::Merge) and error bounds add — each point lives in
  /// exactly one partial, so the bounds partition the whole query's. The
  /// merged partial carries bounds iff either side did. InvalidArgument
  /// when the region counts differ or a side's bounds are not one per
  /// region; this partial is unchanged then.
  Status Merge(const PartialResult& other);

  /// The finished result under `kind`: Accumulator::Finalize and the count
  /// of every region, bounds as they are.
  QueryResult Finalize(AggregateKind kind) const;
};

}  // namespace urbane::core

#endif  // URBANE_CORE_AGGREGATE_H_
