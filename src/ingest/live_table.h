#ifndef URBANE_INGEST_LIVE_TABLE_H_
#define URBANE_INGEST_LIVE_TABLE_H_

// The appendable data set: an LSM-style write path over the existing
// read-only store machinery.
//
// Row lifecycle (DESIGN.md §13):
//
//   append --> hot run (memtable, WAL-durable)
//          --> sealed run (immutable memtable awaiting flush)
//          --> store run (UST1 block file written through StoreWriter:
//              Morton-sorted blocks + zone maps, atomically swapped in)
//          --> [Compact()] merged store run
//
// Visibility & watermark: a batch is visible to queries the moment
// Append() returns, and the *watermark* is the total number of visible
// rows (base + every run + hot). Snapshot() returns an immutable picture
// of the component stack — base table, runs in generation order, hot
// prefix — that queries execute against; concurrent appends and flushes
// never mutate a snapshot's components (flush swaps a sealed run for a
// store run holding the same rows, and snapshots keep the old component
// alive via shared_ptr).
//
// Durability: every append is framed into a checksummed WAL segment before
// it is published (one segment per memtable generation; see wal.h).
// Sealing rotates the segment; a flush makes the run durable as a UST1
// file, commits a manifest (AtomicFileWriter: temp + fsync + rename +
// parent-dir fsync) naming the live run files and the lowest WAL
// generation still needed, then deletes the covered segments. Open()
// recovers by reading the manifest, opening the listed runs, ignoring and
// removing orphan run files (flush crashed before its manifest commit —
// their rows are still in the WAL), and replaying every committed WAL
// record at or above the floor into a fresh memtable, truncating any torn
// tail. Replay therefore reaches exactly the pre-crash visible state.

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/zone_map.h"
#include "data/point_table.h"
#include "data/schema.h"
#include "geometry/bounding_box.h"
#include "ingest/memtable.h"
#include "ingest/wal.h"
#include "store/store_reader.h"
#include "util/status.h"

namespace urbane::ingest {

struct IngestOptions {
  /// Hot-run bound: Append returns ResourceExhausted (HTTP 429) when a
  /// batch does not fit and no seal can make room.
  std::size_t memtable_rows = 256 * 1024;
  /// Un-flushed sealed runs allowed before appends push back. The write
  /// path absorbs bursts of max_sealed_runs * memtable_rows rows between
  /// Flush() calls; nothing flushes on its own (the memtable seals only at
  /// capacity).
  std::size_t max_sealed_runs = 4;
  /// fsync the WAL segment after every append (a durability point per
  /// batch). Off by default: the OS page cache absorbs the stream and
  /// Seal/Flush/Close sync — the trade every LSM write path offers.
  bool sync_wal_each_append = false;
  /// Block size of flushed UST1 run files (StoreWriterOptions::block_rows).
  std::uint64_t run_block_rows = 64 * 1024;
  /// Retained-append-log bound for scoped cache invalidation (see
  /// AppendLogEntry); the oldest entries are dropped past it.
  std::size_t append_log_entries = 1024;
};

/// One immutable run in the component stack. Either memory-backed (a
/// sealed memtable) or store-backed (a flushed UST1 file); `table` is a
/// view either way, so readers are oblivious to which.
struct LiveRun {
  std::uint64_t generation = 0;
  std::uint64_t rows = 0;
  /// WAL generations this run's rows came from ([wal_lo, wal_hi]).
  std::uint64_t wal_lo = 0;
  std::uint64_t wal_hi = 0;
  /// Memory-backed: the sealed memtable owning the columns.
  std::shared_ptr<Memtable> mem;
  /// Store-backed: the open reader owning the mapping + its file path.
  std::unique_ptr<store::StoreReader> reader;
  std::string path;
  /// View over the run's rows (into `mem` or the reader's mapping).
  data::PointTable table;
  std::pair<std::int64_t, std::int64_t> time_range{0, 0};

  bool store_backed() const { return reader != nullptr; }
  const core::ZoneMapIndex* zone_maps() const {
    return reader != nullptr ? &reader->zone_maps() : nullptr;
  }
};

/// An immutable as-of picture of the component stack. The canonical row
/// order — the order a stop-the-world rebuild would concatenate rows in —
/// is: base rows, then each run's rows in generation order (each run in
/// its stored order), then hot rows in arrival order.
struct LiveSnapshot {
  const data::PointTable* base = nullptr;  // null when the table has none
  const core::ZoneMapIndex* base_zone_maps = nullptr;
  std::vector<std::shared_ptr<const LiveRun>> runs;  // generation order
  /// Hot prefix: owner + a view over its first `hot_rows` rows.
  std::shared_ptr<Memtable> hot_owner;
  data::PointTable hot;
  std::uint64_t hot_rows = 0;
  /// Identity of the hot component: changes on every append and seal, so
  /// engines know when to rebuild their hot-run state.
  std::uint64_t hot_generation = 0;
  std::uint64_t hot_sequence = 0;
  /// Exact extents of the hot prefix (empty box / {0,0} when no rows):
  /// the hot view's cached extents, which its grid index is sized by.
  geometry::BoundingBox hot_bounds;
  std::pair<std::int64_t, std::int64_t> hot_time_range{0, 0};
  /// Total visible rows: base + runs + hot.
  std::uint64_t watermark = 0;
  /// Position in the append log (see AppendLogEntry).
  std::uint64_t append_seq = 0;
};

/// One entry of the bounded append log that engines use for scoped cache
/// invalidation: the time interval an append, flush or compaction touched.
/// Flush/compact entries matter too: the row set did not change, only its
/// order, but a cached float SUM over that interval may differ bitwise from
/// a re-execution, so it must drop.
struct AppendLogEntry {
  std::uint64_t seq = 0;
  std::int64_t t_begin = 0;  // half-open [t_begin, t_end)
  std::int64_t t_end = 0;
};

struct IngestStats {
  std::uint64_t watermark = 0;
  std::uint64_t base_rows = 0;
  std::uint64_t hot_rows = 0;
  std::uint64_t sealed_runs = 0;
  std::uint64_t store_runs = 0;
  std::uint64_t appends = 0;
  std::uint64_t rows_appended = 0;
  std::uint64_t rejected = 0;
  std::uint64_t flushes = 0;
  std::uint64_t compactions = 0;
  std::uint64_t wal_bytes = 0;  // active segment
  std::uint64_t replayed_rows = 0;  // recovered by Open()
};

/// The appendable table. Thread-safe: Append / Snapshot / Flush / stats may
/// race freely (one mutex guards the component stack; flushing serializes
/// on its own mutex and only takes the stack mutex to swap components).
class LiveTable {
 public:
  /// Opens (or recovers) the live table rooted at `directory`, layered on
  /// top of an optional immutable base table (borrowed; may be null).
  /// `base_zone_maps` (borrowed, may be null) are the base's block zone
  /// maps when it is store-backed. The schema fixes the attribute columns
  /// appended batches must carry.
  static StatusOr<std::unique_ptr<LiveTable>> Open(
      const std::string& directory, data::Schema schema,
      const data::PointTable* base, const core::ZoneMapIndex* base_zone_maps,
      const IngestOptions& options = IngestOptions());

  ~LiveTable();

  LiveTable(const LiveTable&) = delete;
  LiveTable& operator=(const LiveTable&) = delete;

  /// Appends a batch: WAL first, then the memtable, then publication (the
  /// watermark advances and the batch is in every later Snapshot).
  /// ResourceExhausted when the write path is saturated — the caller
  /// should flush or back off (the server maps this onto HTTP 429).
  /// Returns the new watermark.
  StatusOr<std::uint64_t> Append(const data::PointTable& batch);

  /// Seals the hot run (if non-empty) and synchronously flushes every
  /// sealed run to a UST1 store run, committing the manifest and deleting
  /// covered WAL segments. Queries are never blocked: each swap happens
  /// under the stack mutex after the file is fully written.
  Status Flush();

  /// Merges all store runs into one (fewer components to execute and
  /// merge). No-op with fewer than two store runs.
  Status Compact();

  LiveSnapshot Snapshot() const;
  std::uint64_t watermark() const;
  IngestStats stats() const;
  const data::Schema& schema() const { return schema_; }
  const std::string& directory() const { return directory_; }

  /// Append-log entries with seq > since, oldest first. Sets *overflowed
  /// when entries beyond `since` were already dropped (the caller must
  /// fall back to a full rebuild / cache clear).
  std::vector<AppendLogEntry> EntriesSince(std::uint64_t since,
                                           bool* overflowed) const;

 private:
  LiveTable(std::string directory, data::Schema schema,
            const data::PointTable* base,
            const core::ZoneMapIndex* base_zone_maps, IngestOptions options);

  std::string WalPath(std::uint64_t generation) const;
  std::string RunPath(std::uint64_t generation) const;

  /// Seals the hot memtable into a memory run and rotates the WAL.
  /// Requires mu_ held; no-op when the memtable is empty.
  Status SealLocked();
  /// Writes one manifest naming `runs` and `wal_floor` (atomic commit).
  Status CommitManifest(const std::vector<std::shared_ptr<const LiveRun>>& runs,
                        std::uint64_t wal_floor);
  /// Flushes the oldest sealed run (returns false when none exist).
  StatusOr<bool> FlushOldestSealed();
  /// Appends an entry to the bounded append log. Requires mu_ held.
  void LogLocked(AppendLogEntry entry);

  const std::string directory_;
  const data::Schema schema_;
  const data::PointTable* const base_;  // borrowed, may be null
  const core::ZoneMapIndex* const base_zone_maps_;
  const IngestOptions options_;
  const std::uint64_t base_rows_;

  /// Guards the component stack, the WAL writer, and the counters.
  mutable std::mutex mu_;
  std::shared_ptr<Memtable> hot_;
  std::uint64_t hot_generation_ = 1;  // bumped on every seal
  std::uint64_t hot_sequence_ = 0;    // bumped on every append
  std::vector<std::shared_ptr<const LiveRun>> runs_;
  WalWriter wal_;
  std::uint64_t wal_generation_ = 1;
  std::uint64_t wal_record_seq_ = 0;  // per-segment, restarts at 1
  std::uint64_t wal_floor_ = 1;
  /// WAL generations feeding the current memtable ([lo, current]).
  std::uint64_t hot_wal_lo_ = 1;
  std::uint64_t next_run_generation_ = 1;
  std::uint64_t watermark_ = 0;
  std::deque<AppendLogEntry> append_log_;
  std::uint64_t append_seq_ = 0;
  std::uint64_t append_log_floor_ = 0;  // seq of the oldest retained - 1
  IngestStats counters_;

  /// Serializes flush/compact (file writes happen outside mu_).
  std::mutex flush_mu_;
};

}  // namespace urbane::ingest

#endif  // URBANE_INGEST_LIVE_TABLE_H_
