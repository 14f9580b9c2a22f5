#ifndef URBANE_CORE_OBSERVE_H_
#define URBANE_CORE_OBSERVE_H_

// Glue between the query path and the obs subsystem, at two levels.
//
// Per execution: executors are immutable after Create, so an
// ExecutePartial call accumulates its pass costs in a local
// obs::ProfilePassCosts and publishes them once, at the end of the call,
// through PublishExecution. Nothing is left on the executor, so
// concurrent calls on one instance share no mutable state.
//
// Per query: ObserveQuery wraps the one entry point that answers a query
// as a whole — the facade's Execute, over however many row components the
// query spans (a live data set answers through the same facade) — so a
// query is journaled, timed and offered to the slow-query recorder exactly
// once.
//
// With metrics off and no profile attached a publish is one relaxed load
// and a pointer test, and QueryUnobserved lets a caller skip ObserveQuery
// for three relaxed loads and a pointer test, so the query path pays
// nothing when nobody is observing.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "core/planner.h"
#include "core/query.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/profile.h"

namespace urbane::core {

/// Publishes one finished ExecutePartial call. When metrics are enabled,
/// feeds the global registry under `exec.<metric>.*` (see DESIGN.md for
/// the metric naming convention). When `profile` is non-null, records the
/// executor that ran (`executor.name()`), its thread count (1 for an
/// executor, the shard count for a sharded pass) and `costs` as the
/// profile's totals.
void PublishExecution(const SpatialAggregationExecutor& executor,
                      const char* metric, std::size_t threads_used,
                      const obs::ProfilePassCosts& costs,
                      obs::QueryProfile* profile);

/// True when nobody observes `query`: the event journal, the slow-query
/// recorder and metrics are off and no profile is attached. Callers then
/// answer the query directly instead of through ObserveQuery.
bool QueryUnobserved(const AggregationQuery& query);

/// Armed slow-query mode attaches a profile the caller did not ask for, so
/// a committed record embeds the full breakdown; it inherits the thread's
/// current trace context (the server request's id), linking the slowlog
/// entry to the same trace as everything else. Returns null — attaching
/// nothing — when the query already carries a profile. The query points at
/// the returned profile, so the caller keeps it alive until the query is
/// answered.
std::unique_ptr<obs::QueryProfile> AttachArmedProfile(AggregationQuery& query);

/// Answers one query through `run` under the per-query observation: the
/// journal's `query.start` / `query.finish` (and `error`) events keyed by
/// `fingerprint()`, the armed recorder's profile (AttachArmedProfile) and
/// its MaybeRecord, the `query.wall_seconds` histogram and the profile's
/// `wall_seconds`. `run` answers `query` — which by then carries the armed
/// profile, if one was attached — and reports through `cache_hit` whether
/// the answer came from a result cache. `fingerprint` is called once,
/// before `run`, and only when the journal or the recorder needs it.
StatusOr<QueryResult> ObserveQuery(
    AggregationQuery& query, ExecutionMethod method,
    const std::function<std::uint64_t()>& fingerprint,
    const std::function<StatusOr<QueryResult>(bool* cache_hit)>& run);

}  // namespace urbane::core

#endif  // URBANE_CORE_OBSERVE_H_
