#ifndef URBANE_PERFBENCH_REPORT_H_
#define URBANE_PERFBENCH_REPORT_H_

// The benchmark's output: human-readable lines first, then exactly one
// JSON result object as the last line of standard output.

#include <cstdint>
#include <string>
#include <vector>

#include "sampling.h"

namespace urbane::perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest decimal that round-trips the double; non-finite values, which
/// JSON cannot carry, render as `missed_value`.
std::string FormatNumber(double value, double missed_value = 0.0);

/// {"correct": ..., "attempted": N, "failed": N, "metrics": {name:
/// {"value": v, "unit": u}, ...}} on one line, metrics in the given order.
std::string ResultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics,
                       double missed_value);

/// "<what>: attempted=A ok=O refused=R failed=F".
std::string TallyLine(const std::string& what, const OpTally& tally);

}  // namespace urbane::perfbench

#endif  // URBANE_PERFBENCH_REPORT_H_
