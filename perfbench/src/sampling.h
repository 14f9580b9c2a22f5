#ifndef URBANE_PERFBENCH_SAMPLING_H_
#define URBANE_PERFBENCH_SAMPLING_H_

// Raw-sample statistics, failure accounting and the process / host noise
// probes the benchmark prints beside every run.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace urbane::perfbench {

/// A refused or failed operation enters the latency sample as this value:
/// it sorts above every measured latency, so it misses any latency limit.
inline constexpr double kMissedSample = std::numeric_limits<double>::infinity();

/// Percentile `q` in [0, 100] of raw samples, by linear interpolation
/// between the closest order statistics (rank q/100 * (n - 1)). 0 for an
/// empty vector. An interpolation that touches kMissedSample returns it.
double Percentile(std::vector<double> samples, double q);

/// Outcome counts of one kind of operation (frames, appends).
struct OpTally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t refused = 0;  // HTTP 429
  std::uint64_t failed = 0;   // other status, transport error, mismatch

  /// Records one completed exchange by its HTTP status (0 = transport
  /// error, no status read).
  void Record(int http_status);
  /// A response that arrived with 200 but did not check out: moves one
  /// operation from ok to failed.
  void RecordMismatch();
  void Merge(const OpTally& other);
  /// Refused + failed: everything that did not produce a correct answer.
  std::uint64_t not_ok() const { return refused + failed; }
};

/// Aggregate CPU jiffies from the first ("cpu ") line of /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

/// Parses /proc/stat text; false when the "cpu " line is missing or has
/// fewer than the eight fields up to steal.
bool ParseProcStat(const std::string& text, CpuTimes* out);

/// Steal share in percent of all jiffies between two readings; 0 when no
/// time passed.
double StealPercent(const CpuTimes& before, const CpuTimes& after);

/// Reads /proc/stat now; zeros when unavailable.
CpuTimes ReadCpuTimes();

/// This process's CPU time and minor page faults so far (getrusage).
struct ProcessUsage {
  double cpu_ms = 0.0;
  std::uint64_t minor_faults = 0;
};
ProcessUsage ReadProcessUsage();

/// Peak resident set size (VmHWM) in MiB; 0 when unavailable.
double PeakRssMiB();

/// Resets the peak-RSS high-water mark to the current RSS (Linux
/// /proc/self/clear_refs "5"); false when the kernel refuses.
bool ResetPeakRss();

}  // namespace urbane::perfbench

#endif  // URBANE_PERFBENCH_SAMPLING_H_
