#ifndef URBANE_OBS_OBS_H_
#define URBANE_OBS_OBS_H_

// Process-wide observability switches.
//
// Metrics and the event journal default to OFF so the hot query path pays
// only a relaxed atomic load when nobody is looking. Per-query attribution
// needs no switch: a caller that wants one attaches a QueryProfile
// (obs/profile.h) to the query, and a null profile costs a pointer test.

#include <atomic>

namespace urbane::obs {

namespace internal {
// Defined in obs.cc. Relaxed ordering is sufficient: the flags gate
// *recording*, not inter-thread data publication.
extern std::atomic<bool> g_metrics_enabled;
extern std::atomic<bool> g_journal_enabled;
}  // namespace internal

inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}
// Gates the structured event journal (obs/event_journal.h). Independent of
// the metrics switch: the journal is the always-on production feed, the
// metrics registry the heavier aggregate layer.
inline bool JournalEnabled() {
  return internal::g_journal_enabled.load(std::memory_order_relaxed);
}
void SetMetricsEnabled(bool enabled);
void SetJournalEnabled(bool enabled);

}  // namespace urbane::obs

#endif  // URBANE_OBS_OBS_H_
