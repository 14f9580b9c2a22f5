#ifndef URBANE_CORE_OBSERVE_H_
#define URBANE_CORE_OBSERVE_H_

// Glue between the executors and the obs subsystem.
//
// Executors are immutable after Create: an Execute call accumulates its
// pass costs in a local obs::ProfilePassCosts (per-worker partials too)
// and publishes them once, at the end of the call, through
// PublishExecution. Nothing is left on the executor, so concurrent calls
// on one instance share no mutable state. With metrics off and no profile
// attached the publish is one relaxed load and a pointer test, so the
// query path pays nothing when nobody is observing.

#include <cstddef>

#include "core/query.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/profile.h"

namespace urbane::core {

/// Publishes one finished Execute call. When metrics are enabled, feeds
/// the global registry under `exec.<metric>.*` (see DESIGN.md for the
/// metric naming convention). When `profile` is non-null, records the
/// executor that ran (`executor.name()`), its thread count and `costs` as
/// the profile's totals.
void PublishExecution(const SpatialAggregationExecutor& executor,
                      const char* metric, std::size_t threads_used,
                      const obs::ProfilePassCosts& costs,
                      obs::QueryProfile* profile);

}  // namespace urbane::core

#endif  // URBANE_CORE_OBSERVE_H_
