#ifndef URBANE_UTIL_TIMER_H_
#define URBANE_UTIL_TIMER_H_

#include <chrono>
#include <string>

namespace urbane {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Formats a duration with an adaptive unit, e.g. "1.24s", "18.2ms", "640us".
std::string FormatDuration(double seconds);

}  // namespace urbane

#endif  // URBANE_UTIL_TIMER_H_
