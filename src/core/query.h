#ifndef URBANE_CORE_QUERY_H_
#define URBANE_CORE_QUERY_H_

#include <atomic>
#include <chrono>
#include <string>

#include "core/aggregate.h"
#include "core/filter.h"
#include "core/row_range.h"
#include "data/point_table.h"
#include "data/region.h"
#include "util/status.h"

namespace urbane::obs {
struct QueryProfile;
}  // namespace urbane::obs

namespace urbane::core {

/// Cooperative deadline / cancellation for one in-flight query. The owner
/// (e.g. a server worker) keeps the control alive for the duration of
/// Execute; executors poll Check() at pass boundaries (filter → splat →
/// sweep → reduce → refine), so a query aborts within one pass of the
/// deadline expiring or `cancelled` being set — never mid-buffer.
///
/// Not part of a query's identity: the result cache fingerprint ignores
/// it, and a query that aborts returns a non-OK status, so partial results
/// can never be cached.
struct QueryControl {
  using Clock = std::chrono::steady_clock;

  /// Absolute deadline; the epoch default means "none".
  Clock::time_point deadline{};
  /// Asynchronous abort (e.g. server drain past its drain deadline). May
  /// be set from any thread while the query runs.
  std::atomic<bool> cancelled{false};

  void SetTimeout(std::chrono::milliseconds timeout) {
    deadline = Clock::now() + timeout;
  }

  /// OK while the query may keep running; DeadlineExceeded once the
  /// deadline passed or the control was cancelled.
  Status Check() const {
    if (cancelled.load(std::memory_order_relaxed)) {
      return Status::DeadlineExceeded("query cancelled");
    }
    if (deadline != Clock::time_point{} && Clock::now() > deadline) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }
};

/// The paper's spatial aggregation query:
///
///   SELECT AGG(a_i) FROM P, R
///   WHERE P.loc INSIDE R.geometry [AND filterCondition]*
///   GROUP BY R.id
///
/// `points` is P, `regions` is R; both are borrowed (caller keeps them alive
/// for the duration of execution). A point lying in several (overlapping)
/// regions contributes to each of them.
struct AggregationQuery {
  const data::PointTable* points = nullptr;
  const data::RegionSet* regions = nullptr;
  AggregateSpec aggregate;
  FilterSpec filter;

  /// Optional deadline/cancellation hook, polled between executor passes;
  /// null (the common case) costs one pointer test per pass. Borrowed —
  /// the caller keeps it alive for the duration of Execute. Not part of the
  /// query's identity.
  const QueryControl* control = nullptr;

  /// Optional per-request profile (obs/profile.h), the one per-query
  /// attribution record: the facade attributes planner/cache/prune
  /// outcomes to it, the executor that ran writes its pass costs, and the
  /// sharded executor appends its per-shard breakdown. Nullable (null —
  /// the common case — costs one pointer test per site), borrowed, mutated
  /// only by the coordinator thread of this query, and never part of its
  /// identity.
  obs::QueryProfile* profile = nullptr;

  /// Optional zone-map pruning output (ZoneMapIndex::Prune over this
  /// query's filter): rows outside these ranges are known not to match the
  /// filter, so EvaluateFilter's predicate kernels never read them.
  /// Null — the in-memory common case — means all rows are candidates.
  /// The facade sets it per component (for a composed raster join, over
  /// the components' concatenated rows, which the join splits back per
  /// component) and the sharded executor per shard; the facade ignores a
  /// caller's. Borrowed for the duration of the
  /// executor call; not part of the query's identity, since pruning never
  /// changes results (see ZoneMapIndex).
  const RowRangeSet* candidate_ranges = nullptr;

  /// Pass-boundary deadline poll (see QueryControl).
  Status CheckControl() const {
    return control == nullptr ? Status::OK() : control->Check();
  }

  /// Structural validation (non-null inputs, attribute names resolvable).
  Status Validate() const;

  /// Human-readable SQL-ish rendering for logs and EXPLAIN output.
  std::string ToString() const;
};

/// Common interface of the four interchangeable execution strategies.
///
/// An executor is immutable after Create: ExecutePartial is const and any
/// number of threads may call it on one instance concurrently. A call's
/// pass costs go to `query.profile` (when attached) and to the `exec.*`
/// metrics (when enabled), never to the executor.
class SpatialAggregationExecutor {
 public:
  virtual ~SpatialAggregationExecutor() = default;

  /// Executes the query over the rows it selects (all rows, or
  /// `query.candidate_ranges`), producing one unfinalized accumulator per
  /// region (region order). Partials over disjoint rows merge with
  /// PartialResult::Merge — the sharded executor composes shards and the
  /// facade composes scan and index components that way.
  virtual StatusOr<PartialResult> ExecutePartial(
      const AggregationQuery& query) const = 0;

  /// ExecutePartial, finalized under the query's aggregate.
  StatusOr<QueryResult> Execute(const AggregationQuery& query) const;

  /// Strategy name for reports ("scan", "index", "raster", "accurate").
  virtual std::string name() const = 0;

  /// True if results are exact (false only for the bounded raster join).
  virtual bool exact() const = 0;
};

}  // namespace urbane::core

#endif  // URBANE_CORE_QUERY_H_
