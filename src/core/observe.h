#ifndef URBANE_CORE_OBSERVE_H_
#define URBANE_CORE_OBSERVE_H_

// Glue between the executors and the obs subsystem.
//
// Executors keep their existing WallTimer-based pass timings (those feed
// `ExecutorStats` unconditionally, exactly as before this layer existed);
// this header turns the measured numbers into registry metrics and into
// the pass-cost section of a query profile. Both entry points are no-ops
// on the disabled fast path, so the query path pays nothing when nobody
// is observing.

#include "core/aggregate.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/profile.h"

namespace urbane::core {

/// Publishes one Execute call's stats into the global registry under
/// `exec.<executor>.*` (see DESIGN.md for the metric naming convention).
/// No-op unless metrics are enabled.
void ObserveExecutorStats(const char* executor, const ExecutorStats& stats);

/// Copies one execution's measured pass costs into a profile section
/// (obs cannot depend on core, so the field copy lives on this side).
void FillProfilePassCosts(const ExecutorStats& stats,
                          obs::ProfilePassCosts* out);

}  // namespace urbane::core

#endif  // URBANE_CORE_OBSERVE_H_
