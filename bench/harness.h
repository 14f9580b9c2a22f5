#ifndef URBANE_BENCH_HARNESS_H_
#define URBANE_BENCH_HARNESS_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace urbane::bench {

/// Workload scale factor from URBANE_BENCH_SCALE (default 1.0, clamped to
/// >= 0.05). All benches multiply their point counts by this, so
/// URBANE_BENCH_SCALE=4 approximates the paper's full-size runs and
/// URBANE_BENCH_SCALE=0.1 smoke-tests in seconds.
double BenchScale();

/// base * BenchScale(), at least 1.
std::size_t ScaledCount(std::size_t base);

/// Shard count from URBANE_BENCH_THREADS (default 1 = unsharded, the
/// historical behavior). Benches set it as the engines' row-range shard
/// count (SpatialAggregation::set_num_shards, LiveEngineOptions::num_shards)
/// so the same binaries measure the parallelism ablation axis; every
/// ResultTable row records it in a trailing `threads` column.
std::size_t BenchThreads();

/// Median wall-clock seconds of `fn` over `repeats` runs (after one
/// untimed warm-up that also populates lazy caches).
double MeasureSeconds(const std::function<void()>& fn, int repeats = 3);

/// Accumulates a results table, pretty-prints it to stdout and, when
/// URBANE_BENCH_CSV is set to a directory, writes `<name>.csv` plus
/// `<name>.json` there. The JSON file embeds a snapshot of the global
/// metrics registry ("metrics" key, schema urbane.metrics.v1), so a bench
/// that ran with obs::SetMetricsEnabled(true) ships its per-pass latency
/// histograms and cache counters alongside the table.
class ResultTable {
 public:
  ResultTable(std::string name, std::vector<std::string> columns);

  void AddRow(std::vector<std::string> row);

  /// printf convenience: formats a cell.
  static std::string Cell(const char* format, ...)
      __attribute__((format(printf, 1, 2)));

  /// Prints the table and writes the CSV (if configured). Returns false if
  /// the CSV write failed (table is still printed).
  bool Finish() const;

 private:
  std::string name_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints the standard bench banner (name, scale, provenance line).
void PrintHeader(const std::string& name, const std::string& description);

}  // namespace urbane::bench

#endif  // URBANE_BENCH_HARNESS_H_
