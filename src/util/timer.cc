#include "util/timer.h"

#include <cstdio>

namespace urbane {

std::string FormatDuration(double seconds) {
  char buf[64];
  if (seconds >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  } else if (seconds >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
  } else if (seconds >= 1e-6) {
    std::snprintf(buf, sizeof(buf), "%.1fus", seconds * 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fns", seconds * 1e9);
  }
  return buf;
}

}  // namespace urbane
