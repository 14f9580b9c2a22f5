#include "obs/obs.h"

namespace urbane::obs {

namespace internal {
std::atomic<bool> g_metrics_enabled{false};
std::atomic<bool> g_journal_enabled{false};
}  // namespace internal

void SetMetricsEnabled(bool enabled) {
  internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

void SetJournalEnabled(bool enabled) {
  internal::g_journal_enabled.store(enabled, std::memory_order_relaxed);
}

}  // namespace urbane::obs
