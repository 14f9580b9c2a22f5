#include "sampling.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace urbane::perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(q, 0.0, 100.0) / 100.0 *
      static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0 || samples[lo] == samples[hi]) return samples[lo];
  if (std::isinf(samples[hi])) return samples[hi];
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

void OpTally::Record(int http_status) {
  ++attempted;
  if (http_status == 200) {
    ++ok;
  } else if (http_status == 429) {
    ++refused;
  } else {
    ++failed;
  }
}

void OpTally::RecordMismatch() {
  if (ok > 0) --ok;
  ++failed;
}

void OpTally::Merge(const OpTally& other) {
  attempted += other.attempted;
  ok += other.ok;
  refused += other.refused;
  failed += other.failed;
}

bool ParseProcStat(const std::string& text, CpuTimes* out) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("cpu ", 0) != 0) continue;
    std::istringstream fields(line.substr(4));
    std::vector<std::uint64_t> values;
    std::uint64_t value = 0;
    while (fields >> value) values.push_back(value);
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted inside user/nice, so it is not added.
    if (values.size() < 8) return false;
    CpuTimes times;
    for (std::size_t i = 0; i < 8; ++i) times.total += values[i];
    times.steal = values[7];
    *out = times;
    return true;
  }
  return false;
}

double StealPercent(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total || after.steal < before.steal) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::stringstream text;
  text << in.rdbuf();
  CpuTimes times;
  ParseProcStat(text.str(), &times);
  return times;
}

ProcessUsage ReadProcessUsage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ProcessUsage out;
  out.cpu_ms = (static_cast<double>(usage.ru_utime.tv_sec) +
                static_cast<double>(usage.ru_stime.tv_sec)) * 1e3 +
               (static_cast<double>(usage.ru_utime.tv_usec) +
                static_cast<double>(usage.ru_stime.tv_usec)) / 1e3;
  out.minor_faults = static_cast<std::uint64_t>(usage.ru_minflt);
  return out;
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace urbane::perfbench
