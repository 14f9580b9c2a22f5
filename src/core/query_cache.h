#ifndef URBANE_CORE_QUERY_CACHE_H_
#define URBANE_CORE_QUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "core/planner.h"
#include "core/query.h"

namespace urbane::core {

/// Capacity / layout knobs of a QueryCache.
struct QueryCacheOptions {
  /// Total entry bound across shards; 0 disables the cache entirely.
  std::size_t max_entries = 0;
  /// Total result-payload bound across shards (approximate accounting via
  /// QueryCache::ResultBytes).
  std::size_t max_bytes = 256u << 20;
  /// Lock striping width (clamped to >= 1). More shards = less contention;
  /// per-shard capacity is the total divided across shards, so tiny
  /// `max_entries` values reserve capacity on only the first few shards.
  std::size_t shards = 8;
};

/// Aggregated counters across all shards (monotonic except entries/bytes).
struct QueryCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t inserts = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;

  double HitRate() const {
    const std::size_t probes = hits + misses;
    return probes == 0 ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(probes);
  }
};

/// Thread-safe memoization of spatial aggregation results.
///
/// A sharded hash map with per-shard LRU eviction: every operation takes
/// exactly one shard mutex, so concurrent sessions probing different keys
/// rarely contend. Entries are keyed by a 64-bit fingerprint of the full
/// answer identity — method, aggregate, every filter conjunct (time range,
/// attribute ranges, viewport window), the canvas resolution the answer was
/// computed at, and the owning engine's executor-config epoch. Bumping the
/// epoch after any executor rebuild makes every older entry unreachable
/// (structural invalidation — no synchronous clear required), which is what
/// fixes the stale-ε bug: a bounded-raster answer memoized at a coarse
/// resolution can never be served after the engine re-plans to a finer one.
///
/// Keys are fingerprints only (the full query is not stored), so a 64-bit
/// hash collision would alias two queries; with FNV-1a over the canonical
/// field encoding the chance is ~2^-64 per pair and is accepted.
class QueryCache {
 public:
  explicit QueryCache(const QueryCacheOptions& options = QueryCacheOptions());

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// Stable 64-bit fingerprint of (method, aggregate, filter conjuncts,
  /// viewport window, canvas resolution, executor-config epoch). The
  /// `canvas_resolution` is the resolution the raster executors would run
  /// at; scan and index answers do not depend on it, so their keys ignore
  /// it. `config_epoch` is the owning engine's rebuild counter.
  static std::uint64_t Fingerprint(const AggregationQuery& query,
                                   ExecutionMethod method,
                                   int canvas_resolution,
                                   std::uint64_t config_epoch);

  /// Approximate heap footprint of a cached result (payload accounting).
  static std::size_t ResultBytes(const QueryResult& result);

  /// False when max_entries == 0 — callers can skip fingerprinting.
  bool enabled() const {
    return max_entries_.load(std::memory_order_relaxed) > 0;
  }

  /// Returns a copy of the entry and marks it most-recently-used, or
  /// nullopt. `record_miss=false` suppresses the miss counter — used for
  /// the double-checked re-probe after acquiring an execution lock, so one
  /// logical probe is not counted as two misses.
  std::optional<QueryResult> Lookup(std::uint64_t key,
                                    bool record_miss = true);

  /// Inserts (or refreshes) the answer to a query with filter `filter`,
  /// then evicts LRU entries until the shard is within its entry and byte
  /// bounds. A result too large for its shard's byte bound is simply not
  /// retained.
  ///
  /// The filter's time range, when present, is the entry's dependency
  /// interval: rows outside it can never change the answer, so appends
  /// elsewhere keep it valid. Without one the answer depends on every row
  /// and any append invalidates it. See InvalidateTimeOverlap.
  void Insert(std::uint64_t key, const QueryResult& result,
              const FilterSpec& filter = FilterSpec());

  /// Scoped invalidation for appendable engines: drops exactly the entries
  /// whose dependency interval intersects the appended half-open interval
  /// [begin, end), plus every untagged entry (no time filter = depends on
  /// all rows). Entries over fully-closed time ranges below the appended
  /// interval stay cached — this replaces the config-epoch bump that used
  /// to flush provably-unaffected answers on every append.
  /// Returns the number of entries dropped.
  std::size_t InvalidateTimeOverlap(std::int64_t begin, std::int64_t end);

  /// Drops every entry (counters other than entries/bytes are kept).
  void Clear();

  /// Re-bound the entry count; shrinking trims LRU entries immediately.
  /// Setting max_entries to 0 disables and clears it.
  void set_max_entries(std::size_t max_entries);

  QueryCacheStats stats() const;

 private:
  /// The half-open time interval [begin, end) a cached answer depends on.
  struct TimeInterval {
    std::int64_t begin = 0;
    std::int64_t end = 0;
  };
  struct Entry {
    std::uint64_t key = 0;
    QueryResult result;
    std::size_t bytes = 0;
    std::optional<TimeInterval> valid_time;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> map;
    std::size_t bytes = 0;
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t inserts = 0;
    std::size_t evictions = 0;
  };

  Shard& ShardFor(std::uint64_t key) {
    // The fingerprint's low bits feed the hash map; route on high bits.
    return shards_[(key >> 57) % shard_count_];
  }
  /// This shard's slice of a total bound: totals are spread across shards
  /// with the remainder going to the first shards, so the sum of the
  /// per-shard bounds equals the total exactly.
  std::size_t ShardBound(const Shard& shard, std::size_t total) const;
  void TrimLocked(Shard& shard);

  std::atomic<std::size_t> max_entries_;
  const std::size_t max_bytes_;
  std::size_t shard_count_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace urbane::core

#endif  // URBANE_CORE_QUERY_CACHE_H_
