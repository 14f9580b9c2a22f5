#include "core/aggregate.h"

#include <cmath>

namespace urbane::core {

const char* AggregateKindToString(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCount:
      return "COUNT";
    case AggregateKind::kSum:
      return "SUM";
    case AggregateKind::kAvg:
      return "AVG";
    case AggregateKind::kMin:
      return "MIN";
    case AggregateKind::kMax:
      return "MAX";
  }
  return "UNKNOWN";
}

double Accumulator::Finalize(AggregateKind kind) const {
  switch (kind) {
    case AggregateKind::kCount:
      return static_cast<double>(count);
    case AggregateKind::kSum:
      return sum;
    case AggregateKind::kAvg:
      return count == 0 ? std::nan("") : sum / static_cast<double>(count);
    case AggregateKind::kMin:
      return count == 0 ? std::nan("") : min;
    case AggregateKind::kMax:
      return count == 0 ? std::nan("") : max;
  }
  return std::nan("");
}

Status PartialResult::Merge(const PartialResult& other) {
  const std::size_t n = regions.size();
  if (other.regions.size() != n) {
    return Status::InvalidArgument("partial results disagree on region count");
  }
  if ((!error_bounds.empty() && error_bounds.size() != n) ||
      (!other.error_bounds.empty() && other.error_bounds.size() != n)) {
    return Status::InvalidArgument(
        "partial result carries malformed error bounds");
  }
  for (std::size_t r = 0; r < n; ++r) {
    regions[r].Merge(other.regions[r]);
  }
  if (!other.error_bounds.empty()) {
    if (error_bounds.empty()) {
      error_bounds.assign(n, 0.0);
    }
    for (std::size_t r = 0; r < n; ++r) {
      error_bounds[r] += other.error_bounds[r];
    }
  }
  return Status::OK();
}

QueryResult PartialResult::Finalize(AggregateKind kind) const {
  QueryResult result;
  result.values.reserve(regions.size());
  result.counts.reserve(regions.size());
  for (const Accumulator& acc : regions) {
    result.values.push_back(acc.Finalize(kind));
    result.counts.push_back(acc.count);
  }
  result.error_bounds = error_bounds;
  return result;
}

}  // namespace urbane::core
