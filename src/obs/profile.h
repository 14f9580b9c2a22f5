#ifndef URBANE_OBS_PROFILE_H_
#define URBANE_OBS_PROFILE_H_

// Per-request query profiles ("EXPLAIN ANALYZE" for the serving path).
//
// A QueryProfile is the one per-query attribution record. It rides one
// request end to end: the server (or the CLI, or the armed slow-query
// recorder) creates it, the facade attributes planner choice, cache outcome,
// zone-map pruning and coordinator thread-CPU time to it, the executor that
// ran writes its method, thread count and pass costs, and the sharded
// executor appends a per-shard breakdown table in shard-index order. The filled profile renders as the stable
// `urbane.profile.v1` JSON document (HTTP `?profile=1`), as an aligned
// text table (CLI `explain analyze`), and is retained in a bounded
// in-process ProfileStore keyed by trace id (`GET /v1/profiles/<id>`).
//
// Trace-context propagation follows W3C trace context: the server parses
// an inbound `traceparent` header (malformed headers are ignored — the
// request is still served under a freshly generated context), echoes the
// context in the response, and stamps the trace id into journal events
// and slow-query records so one id links every artifact of a request.
//
// Cost model: the profile is a nullable pointer on AggregationQuery — a
// null profile (the default) costs one pointer test per instrumentation
// site, preserving the obs-off == baseline contract. All mutation happens
// on the coordinator thread; each shard task writes its own slot profile
// on a pool worker, and the slots are folded in after the gather fence
// (see shard/sharded_executor.cc). The facade runs one executor pass per
// query, whatever the method, composed over every row component (one for a
// static data set; base, runs and hot rows for a live one), and hands that
// pass this profile; it books zone-map pruning and the coordinator's
// thread-CPU time here itself, and adds the time the query spent building
// executor state as `prepare_seconds`.
//
// Determinism contract (DESIGN.md §12): for a fixed shard count every
// structural and counter field of the profile is bit-stable
// across runs; `*_seconds` fields are wall/CPU measurements and are
// excluded from the contract. CanonicalizeProfileJson zeroes exactly the
// measured fields so golden tests can compare whole documents.

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/json.h"

namespace urbane::obs {

/// W3C trace-context identity: 128-bit trace id, 64-bit parent (span) id,
/// 8-bit flags. A default-constructed context (all-zero trace id) is
/// invalid per the spec and means "none".
struct TraceContext {
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t parent_id = 0;
  std::uint8_t flags = 0x01;  // sampled

  bool valid() const { return (trace_hi | trace_lo) != 0; }
  /// 32 lowercase hex chars (the `/v1/profiles/<id>` key).
  std::string TraceIdHex() const;
  /// "00-<32 hex trace id>-<16 hex parent id>-<2 hex flags>".
  std::string ToTraceparent() const;
};

/// Parses a `traceparent` header value. Accepts exactly the W3C version-00
/// shape: "vv-tttt(32)-pppp(16)-ff" with lowercase-or-uppercase hex,
/// version != "ff", and a non-zero trace id and parent id. Returns false —
/// leaving *out untouched — on anything malformed, so callers fall back to
/// a generated context and still serve the request.
bool ParseTraceparent(const std::string& header, TraceContext* out);

/// Fresh context: a process-unique 128-bit trace id (seeded from the
/// monotonic clock and a process-wide counter, splitmix-scrambled) with a
/// new parent id and the sampled flag.
TraceContext GenerateTraceContext();

/// CLOCK_THREAD_CPUTIME_ID in seconds; 0.0 where unsupported. The delta
/// across a scope is the calling thread's CPU attribution for it — exact
/// for an executor's pass and for each shard's pass (every shard runs
/// serially on one pool thread).
double ThreadCpuSeconds();

/// One execution's pass costs. Executors accumulate them in a local
/// record during ExecutePartial and publish it
/// once at the end of the call (core/observe.h), so an executor keeps no
/// per-query state. Counters are deterministic; seconds are measured.
struct ProfilePassCosts {
  std::uint64_t points_scanned = 0;   // points touched individually
  std::uint64_t points_bulk = 0;      // points taken without a PIP test
  std::uint64_t pip_tests = 0;        // exact point-in-polygon tests run
  std::uint64_t refine_rows = 0;      // accurate raster: rows the boundary
                                      // refine walked, selected or not
  std::uint64_t pixels_touched = 0;   // raster: canvas pixels visited
  std::uint64_t boundary_pixels = 0;  // raster: boundary cells visited
  std::uint64_t tiles_visited = 0;    // raster: distinct 64x64 canvas
                                      // tiles the sweep covered
  std::uint64_t simd_fragments = 0;   // raster: pixels pushed through the
                                      // SIMD span kernels
  double filter_seconds = 0.0;        // filter evaluation
  double splat_seconds = 0.0;         // point splat (raster pass 1)
  double sweep_seconds = 0.0;         // region sweep (raster pass 2)
  double reduce_seconds = 0.0;        // probe/reduce loop (scan, index,
                                      // quadtree) or the shard merge
  double refine_seconds = 0.0;        // boundary-pixel exact refinement
                                      // (accurate raster; clocked only
                                      // when metrics are on or a profile
                                      // is attached)
  double query_seconds = 0.0;         // the whole ExecutePartial call

  /// Adds another execution's counters. Shards run concurrently, so
  /// their pass times overlap and are not summed; the coordinator clocks
  /// its own.
  void AddCounters(const ProfilePassCosts& other);

  data::JsonValue ToJson() const;
};

/// One shard's slice of a scatter-gather execution, in shard-index order.
struct ShardProfileEntry {
  std::uint64_t index = 0;
  std::uint64_t rows_begin = 0;
  std::uint64_t rows_end = 0;
  /// Candidate rows after intersecting the shard with zone-map pruning.
  std::uint64_t candidate_rows = 0;
  double wall_seconds = 0.0;  // measured on the shard's worker thread
  double cpu_seconds = 0.0;   // CLOCK_THREAD_CPUTIME_ID delta, same thread
  ProfilePassCosts costs;
};

/// The per-request profile. Single-writer: only the coordinator thread of
/// a request mutates it (see file comment), so fields are plain.
struct QueryProfile {
  TraceContext context;

  /// Request layer (filled by the query server; zero for CLI/library use).
  double queue_wait_seconds = 0.0;

  /// Facade layer.
  std::string method;               // executor that ran ("scan", ...)
  std::string planner_choice;       // set when the planner picked `method`
  std::string planner_explanation;  // planner cost-model rationale
  std::string cache = "off";        // "hit" | "miss" | "off"
  double wall_seconds = 0.0;        // facade Execute wall time
  double cpu_seconds = 0.0;         // coordinator thread-CPU inside Execute
  double prepare_seconds = 0.0;     // building the executor state the
                                    // query needed (any method's region-
                                    // and point-side state and composed
                                    // executor); 0 when all was built

  /// Store layer (zone-map pruning; zero when no store is attached).
  std::uint64_t blocks_total = 0;
  std::uint64_t blocks_pruned = 0;
  std::uint64_t rows_pruned = 0;

  /// Executor totals (the pass costs of the execution that ran). For a
  /// sharded execution the counters equal the sum over `shards`.
  /// `threads_used` is 1 for an executor and M for an M-shard pass.
  std::uint64_t threads_used = 0;
  ProfilePassCosts totals;

  /// Shard layer; empty unless the sharded path executed.
  double scatter_seconds = 0.0;
  double merge_seconds = 0.0;
  std::vector<ShardProfileEntry> shards;

  /// The stable wire document, schema "urbane.profile.v1". Key order is
  /// fixed; integer counters render exactly (they stay far below 2^53).
  data::JsonValue ToJson() const;

  /// Aligned text rendering for `explain analyze` — same structure as the
  /// JSON: header lines, a totals row, then one row per shard.
  std::string ToTable() const;
};

/// Zeroes every measured (`*_seconds`) field of an urbane.profile.v1
/// document in place, leaving the deterministic skeleton golden tests
/// compare. Unknown keys are preserved untouched.
void CanonicalizeProfileJson(data::JsonValue* doc);

/// Bounded in-memory retention of rendered profiles keyed by trace id.
/// Insert-order eviction (oldest first); lookups and the recent listing
/// take one mutex — profile retention is off the query hot path (one
/// insert per *profiled* request, which already paid for JSON rendering).
class ProfileStore {
 public:
  explicit ProfileStore(std::size_t capacity = kDefaultCapacity);

  ProfileStore(const ProfileStore&) = delete;
  ProfileStore& operator=(const ProfileStore&) = delete;

  /// The process-wide store behind /v1/profiles.
  static ProfileStore& Global();

  /// Renders and retains `profile`. Re-inserting a trace id replaces the
  /// retained document (and refreshes its eviction position).
  void Insert(const QueryProfile& profile);

  /// The retained document for a trace id (32 lowercase hex chars), or
  /// false when unknown/evicted.
  bool Lookup(const std::string& trace_id, data::JsonValue* out) const;

  /// Schema "urbane.profiles.v1": newest-first summaries of up to `limit`
  /// retained profiles {trace_id, method, cache, wall_seconds, shards}.
  data::JsonValue Recent(std::size_t limit = 32) const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  void Clear();

  static constexpr std::size_t kDefaultCapacity = 256;

 private:
  struct Entry {
    data::JsonValue doc;
    std::string method;
    std::string cache;
    double wall_seconds = 0.0;
    std::uint64_t shards = 0;
  };

  std::size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  std::deque<std::string> order_;  // insertion order, oldest first
};

}  // namespace urbane::obs

#endif  // URBANE_OBS_PROFILE_H_
