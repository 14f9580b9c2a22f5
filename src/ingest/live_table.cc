#include "ingest/live_table.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "data/json.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "store/store_writer.h"
#include "util/csv.h"
#include "util/file_util.h"
#include "util/string_util.h"

namespace urbane::ingest {

namespace {

constexpr char kManifestFile[] = "MANIFEST.json";
constexpr char kManifestFormat[] = "urbane.ingest.manifest.v1";

Status EnsureDirectory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0) {
    return Status::OK();
  }
  if (errno == EEXIST) {
    struct stat st {};
    if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      return Status::OK();
    }
    return Status::IoError("ingest path exists but is not a directory: " +
                           path);
  }
  return Status::IoError("cannot create ingest directory: " + path + ": " +
                         std::strerror(errno));
}

bool FileExists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

std::pair<std::int64_t, std::int64_t> BatchTimeExtent(
    const data::PointTable& batch) {
  std::int64_t lo = batch.t(0);
  std::int64_t hi = lo;
  for (std::size_t i = 1; i < batch.size(); ++i) {
    lo = std::min(lo, batch.t(i));
    hi = std::max(hi, batch.t(i));
  }
  return {lo, hi};
}

/// Opens a flushed UST1 run file as an immutable store-backed run.
StatusOr<std::shared_ptr<const LiveRun>> OpenStoreRun(
    std::uint64_t generation, const std::string& path, std::uint64_t wal_lo,
    std::uint64_t wal_hi) {
  URBANE_ASSIGN_OR_RETURN(store::StoreReader opened,
                          store::StoreReader::Open(path));
  auto run = std::make_shared<LiveRun>();
  run->generation = generation;
  run->path = path;
  run->wal_lo = wal_lo;
  run->wal_hi = wal_hi;
  run->reader = std::make_unique<store::StoreReader>(std::move(opened));
  run->rows = run->reader->row_count();
  run->time_range = run->reader->zone_maps().TimeRange();
  auto mapped = run->reader->MappedTable();
  if (mapped.ok()) {
    run->table = std::move(mapped).value();
  } else {
    // pread-only file system: fall back to an owning copy.
    URBANE_ASSIGN_OR_RETURN(run->table, run->reader->Materialize());
  }
  return std::shared_ptr<const LiveRun>(std::move(run));
}

/// Seals `mem` (shared with the previous hot run) into a memory-backed run.
StatusOr<std::shared_ptr<const LiveRun>> MakeMemRun(
    std::uint64_t generation, std::shared_ptr<Memtable> mem,
    std::uint64_t wal_lo, std::uint64_t wal_hi) {
  auto run = std::make_shared<LiveRun>();
  run->generation = generation;
  run->wal_lo = wal_lo;
  run->wal_hi = wal_hi;
  run->rows = mem->size();
  run->time_range = mem->time_range();
  URBANE_ASSIGN_OR_RETURN(run->table, mem->View(mem->size()));
  run->table.SetCachedExtents(mem->bounds(), run->time_range);
  run->mem = std::move(mem);
  return std::shared_ptr<const LiveRun>(std::move(run));
}

}  // namespace

LiveTable::LiveTable(std::string directory, data::Schema schema,
                     const data::PointTable* base,
                     const core::ZoneMapIndex* base_zone_maps,
                     IngestOptions options)
    : directory_(std::move(directory)),
      schema_(std::move(schema)),
      base_(base),
      base_zone_maps_(base_zone_maps),
      options_(options),
      base_rows_(base == nullptr ? 0 : base->size()) {}

LiveTable::~LiveTable() {
  // Make the active segment durable, but deliberately do NOT flush runs:
  // reopening must reach the same state through manifest + WAL replay (the
  // recovery tests rely on it).
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_.open()) {
    (void)wal_.Close();
  }
}

std::string LiveTable::WalPath(std::uint64_t generation) const {
  return directory_ + "/" +
         StringPrintf("wal-%06llu.log",
                      static_cast<unsigned long long>(generation));
}

std::string LiveTable::RunPath(std::uint64_t generation) const {
  return directory_ + "/" +
         StringPrintf("run-%06llu.ust1",
                      static_cast<unsigned long long>(generation));
}

StatusOr<std::unique_ptr<LiveTable>> LiveTable::Open(
    const std::string& directory, data::Schema schema,
    const data::PointTable* base, const core::ZoneMapIndex* base_zone_maps,
    const IngestOptions& options) {
  if (base != nullptr &&
      base->schema().attribute_count() != schema.attribute_count()) {
    return Status::InvalidArgument(
        "base table attribute arity does not match the ingest schema");
  }
  URBANE_RETURN_IF_ERROR(EnsureDirectory(directory));
  std::unique_ptr<LiveTable> table(new LiveTable(
      directory, std::move(schema), base, base_zone_maps, options));

  // 1. The manifest names the committed store runs and the WAL floor.
  std::uint64_t max_run_generation = 0;
  const std::string manifest_path = directory + "/" + kManifestFile;
  if (FileExists(manifest_path)) {
    URBANE_ASSIGN_OR_RETURN(const std::string content,
                            ReadFileToString(manifest_path));
    URBANE_ASSIGN_OR_RETURN(const data::JsonValue manifest,
                            data::ParseJson(content));
    const data::JsonValue* format = manifest.Find("format");
    if (format == nullptr || !format->is_string() ||
        format->AsString() != kManifestFormat) {
      return Status::IoError("unrecognized ingest manifest format: " +
                             manifest_path);
    }
    const data::JsonValue* floor = manifest.Find("wal_floor");
    if (floor == nullptr || !floor->is_number()) {
      return Status::IoError("ingest manifest missing wal_floor: " +
                             manifest_path);
    }
    table->wal_floor_ = static_cast<std::uint64_t>(floor->AsNumber());
    const data::JsonValue* runs = manifest.Find("runs");
    if (runs != nullptr && runs->is_array()) {
      for (const data::JsonValue& entry : runs->AsArray()) {
        const data::JsonValue* file = entry.Find("file");
        const data::JsonValue* generation = entry.Find("generation");
        const data::JsonValue* wal_lo = entry.Find("wal_lo");
        const data::JsonValue* wal_hi = entry.Find("wal_hi");
        if (file == nullptr || !file->is_string() || generation == nullptr ||
            !generation->is_number()) {
          return Status::IoError("malformed run entry in ingest manifest: " +
                                 manifest_path);
        }
        const auto gen = static_cast<std::uint64_t>(generation->AsNumber());
        URBANE_ASSIGN_OR_RETURN(
            std::shared_ptr<const LiveRun> run,
            OpenStoreRun(
                gen, directory + "/" + file->AsString(),
                wal_lo == nullptr
                    ? 0
                    : static_cast<std::uint64_t>(wal_lo->AsNumber()),
                wal_hi == nullptr
                    ? 0
                    : static_cast<std::uint64_t>(wal_hi->AsNumber())));
        table->runs_.push_back(std::move(run));
        max_run_generation = std::max(max_run_generation, gen);
      }
    }
  }
  table->next_run_generation_ = max_run_generation + 1;

  // 2. Scan the directory: run files the manifest does not name are flush
  // crash artifacts (their rows are still WAL-covered) — delete them; WAL
  // segments below the floor are fully flushed — delete those too.
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  {
    DIR* dir = ::opendir(directory.c_str());
    if (dir == nullptr) {
      return Status::IoError("cannot list ingest directory: " + directory);
    }
    std::vector<std::string> orphans;
    for (struct dirent* entry = ::readdir(dir); entry != nullptr;
         entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      unsigned long long generation = 0;
      if (std::sscanf(name.c_str(), "run-%6llu.ust1", &generation) == 1 &&
          name.size() == 15) {
        bool listed = false;
        for (const auto& run : table->runs_) {
          listed = listed || run->path == directory + "/" + name;
        }
        if (!listed) {
          orphans.push_back(directory + "/" + name);
        }
      } else if (std::sscanf(name.c_str(), "wal-%6llu.log", &generation) ==
                     1 &&
                 name.size() == 14) {
        if (generation < table->wal_floor_) {
          orphans.push_back(directory + "/" + name);
        } else {
          segments.emplace_back(generation, directory + "/" + name);
        }
      }
    }
    ::closedir(dir);
    for (const std::string& orphan : orphans) {
      ::unlink(orphan.c_str());
    }
  }
  std::sort(segments.begin(), segments.end());

  // 3. Replay the live WAL segments (seal order, arrival order within each)
  // into a fresh memtable — the pre-crash hot + sealed rows.
  std::uint64_t replayed_rows = 0;
  std::vector<WalReplayResult> replays;
  replays.reserve(segments.size());
  std::uint64_t max_wal_generation = table->wal_floor_ - 1;
  for (const auto& [generation, path] : segments) {
    URBANE_ASSIGN_OR_RETURN(
        WalReplayResult replay,
        ReplayWal(path, table->schema_, /*truncate_invalid_tail=*/true));
    replayed_rows += replay.rows.size();
    replays.push_back(std::move(replay));
    max_wal_generation = std::max(max_wal_generation, generation);
  }
  table->hot_ = std::make_shared<Memtable>(
      table->schema_,
      std::max<std::size_t>(options.memtable_rows, replayed_rows));
  for (const WalReplayResult& replay : replays) {
    if (!replay.rows.empty()) {
      URBANE_RETURN_IF_ERROR(table->hot_->Append(replay.rows));
    }
  }
  table->counters_.replayed_rows = replayed_rows;
  table->hot_wal_lo_ = table->wal_floor_;
  table->wal_generation_ = max_wal_generation + 1;

  // 4. Open a fresh segment for new appends.
  URBANE_ASSIGN_OR_RETURN(
      table->wal_, WalWriter::Create(table->WalPath(table->wal_generation_),
                                     table->schema_.attribute_count()));
  table->wal_record_seq_ = 0;

  table->watermark_ = table->base_rows_ + table->hot_->size();
  for (const auto& run : table->runs_) {
    table->watermark_ += run->rows;
  }
  return table;
}

StatusOr<std::uint64_t> LiveTable::Append(const data::PointTable& batch) {
  if (batch.schema().attribute_count() != schema_.attribute_count()) {
    return Status::InvalidArgument(StringPrintf(
        "ingest batch has %zu attributes, live table expects %zu",
        batch.schema().attribute_count(), schema_.attribute_count()));
  }
  URBANE_RETURN_IF_ERROR(batch.Validate());
  std::unique_lock<std::mutex> lock(mu_);
  if (batch.empty()) {
    return watermark_;
  }
  if (batch.size() > options_.memtable_rows) {
    return Status::InvalidArgument(StringPrintf(
        "ingest batch of %zu rows exceeds the memtable capacity of %zu; "
        "split the batch",
        batch.size(), options_.memtable_rows));
  }
  if (!hot_->Fits(batch.size())) {
    std::size_t sealed = 0;
    for (const auto& run : runs_) {
      sealed += run->store_backed() ? 0 : 1;
    }
    if (sealed >= options_.max_sealed_runs) {
      ++counters_.rejected;
      if (obs::MetricsEnabled()) {
        obs::MetricsRegistry::Global().GetCounter("ingest.rejected").Add(1);
      }
      return Status::ResourceExhausted(StringPrintf(
          "ingest write path saturated: %zu sealed runs awaiting flush "
          "(max %zu); retry after a flush",
          sealed, options_.max_sealed_runs));
    }
    URBANE_RETURN_IF_ERROR(SealLocked());
  }

  // WAL before publication: the batch is durable (or at least framed for
  // the page cache) before any reader can see it.
  ++wal_record_seq_;
  URBANE_RETURN_IF_ERROR(wal_.Append(batch, wal_record_seq_));
  if (options_.sync_wal_each_append) {
    URBANE_RETURN_IF_ERROR(wal_.Sync());
  }
  URBANE_RETURN_IF_ERROR(hot_->Append(batch));
  watermark_ += batch.size();
  ++hot_sequence_;
  ++counters_.appends;
  counters_.rows_appended += batch.size();

  const auto [t_lo, t_hi] = BatchTimeExtent(batch);
  LogLocked({++append_seq_, t_lo, t_hi + 1});

  const std::uint64_t watermark = watermark_;
  lock.unlock();

  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("ingest.appends").Add(1);
    registry.GetCounter("ingest.rows_appended").Add(batch.size());
  }
  if (obs::JournalEnabled()) {
    obs::Event event;
    event.kind = obs::EventKind::kIngestAppend;
    event.fingerprint = watermark;
    event.value = static_cast<double>(batch.size());
    obs::EmitEvent(event);
  }
  return watermark;
}

Status LiveTable::SealLocked() {
  if (hot_->empty()) {
    return Status::OK();
  }
  URBANE_RETURN_IF_ERROR(wal_.Close());
  URBANE_ASSIGN_OR_RETURN(
      std::shared_ptr<const LiveRun> run,
      MakeMemRun(next_run_generation_, hot_, hot_wal_lo_, wal_generation_));
  ++next_run_generation_;
  runs_.push_back(std::move(run));
  hot_ = std::make_shared<Memtable>(schema_, options_.memtable_rows);
  ++hot_generation_;
  ++wal_generation_;
  hot_wal_lo_ = wal_generation_;
  URBANE_ASSIGN_OR_RETURN(wal_,
                          WalWriter::Create(WalPath(wal_generation_),
                                            schema_.attribute_count()));
  wal_record_seq_ = 0;
  return Status::OK();
}

Status LiveTable::CommitManifest(
    const std::vector<std::shared_ptr<const LiveRun>>& runs,
    std::uint64_t wal_floor) {
  data::JsonValue::Array run_entries;
  for (const auto& run : runs) {
    if (!run->store_backed()) {
      continue;
    }
    data::JsonValue entry = data::JsonValue::Object{};
    const std::size_t slash = run->path.find_last_of('/');
    entry.Set("file", slash == std::string::npos
                          ? run->path
                          : run->path.substr(slash + 1));
    entry.Set("generation", static_cast<double>(run->generation));
    entry.Set("rows", static_cast<double>(run->rows));
    entry.Set("wal_lo", static_cast<double>(run->wal_lo));
    entry.Set("wal_hi", static_cast<double>(run->wal_hi));
    run_entries.push_back(std::move(entry));
  }
  data::JsonValue manifest = data::JsonValue::Object{};
  manifest.Set("format", std::string(kManifestFormat));
  manifest.Set("wal_floor", static_cast<double>(wal_floor));
  manifest.Set("runs", std::move(run_entries));
  const std::string content = manifest.Dump(2);

  URBANE_ASSIGN_OR_RETURN(
      AtomicFileWriter writer,
      AtomicFileWriter::Open(directory_ + "/" + kManifestFile));
  URBANE_RETURN_IF_ERROR(writer.Write(content.data(), content.size()));
  return writer.Commit();
}

StatusOr<bool> LiveTable::FlushOldestSealed() {
  // flush_mu_ is held by the caller; only SealLocked can mutate runs_
  // concurrently, and it only appends.
  std::shared_ptr<const LiveRun> sealed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& run : runs_) {
      if (!run->store_backed()) {
        sealed = run;
        break;
      }
    }
  }
  if (sealed == nullptr) {
    return false;
  }

  // Write the UST1 run outside the stack mutex — queries keep executing
  // against the sealed memtable until the swap.
  const std::string path = RunPath(sealed->generation);
  store::StoreWriterOptions writer_options;
  writer_options.block_rows = options_.run_block_rows;
  URBANE_ASSIGN_OR_RETURN(
      store::StoreWriter writer,
      store::StoreWriter::Create(path, schema_, writer_options));
  URBANE_RETURN_IF_ERROR(writer.Append(sealed->table));
  URBANE_ASSIGN_OR_RETURN(const store::StoreWriterStats stats,
                          writer.Finish());
  if (stats.rows_written != sealed->rows) {
    return Status::Internal("flushed run row count mismatch");
  }
  URBANE_ASSIGN_OR_RETURN(
      std::shared_ptr<const LiveRun> store_run,
      OpenStoreRun(sealed->generation, path, sealed->wal_lo, sealed->wal_hi));

  std::vector<std::shared_ptr<const LiveRun>> runs_snapshot;
  std::uint64_t new_floor = 0;
  std::uint64_t old_floor = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    bool swapped = false;
    for (auto& run : runs_) {
      if (run == sealed) {
        run = store_run;
        swapped = true;
        break;
      }
    }
    if (!swapped) {
      return Status::Internal("sealed run vanished during flush");
    }
    // The floor is the lowest WAL generation still feeding an un-flushed
    // component (a remaining sealed run or the hot memtable).
    new_floor = hot_wal_lo_;
    for (const auto& run : runs_) {
      if (!run->store_backed()) {
        new_floor = std::min(new_floor, run->wal_lo);
      }
    }
    old_floor = wal_floor_;
    runs_snapshot = runs_;
    ++counters_.flushes;

    // The row *set* is unchanged — but the Morton re-order changes float
    // summation order, so cached results over this interval must drop.
    LogLocked({++append_seq_, store_run->time_range.first,
               store_run->time_range.second + 1});
  }

  URBANE_RETURN_IF_ERROR(CommitManifest(runs_snapshot, new_floor));
  for (std::uint64_t generation = old_floor; generation < new_floor;
       ++generation) {
    ::unlink(WalPath(generation).c_str());
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    wal_floor_ = new_floor;
  }

  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("ingest.flushes").Add(1);
    registry.GetCounter("ingest.rows_flushed").Add(store_run->rows);
  }
  if (obs::JournalEnabled()) {
    obs::Event event;
    event.kind = obs::EventKind::kIngestFlush;
    event.fingerprint = store_run->generation;
    event.value = static_cast<double>(store_run->rows);
    obs::EmitEvent(event);
  }
  return true;
}

Status LiveTable::Flush() {
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    URBANE_RETURN_IF_ERROR(SealLocked());
  }
  for (;;) {
    URBANE_ASSIGN_OR_RETURN(const bool flushed, FlushOldestSealed());
    if (!flushed) {
      return Status::OK();
    }
  }
}

Status LiveTable::Compact() {
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  std::vector<std::shared_ptr<const LiveRun>> prefix;
  std::uint64_t generation = 0;
  std::uint64_t wal_floor = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& run : runs_) {
      if (!run->store_backed()) {
        break;
      }
      prefix.push_back(run);
    }
    if (prefix.size() < 2) {
      return Status::OK();
    }
    generation = next_run_generation_++;
    wal_floor = wal_floor_;
  }

  const std::string path = RunPath(generation);
  store::StoreWriterOptions writer_options;
  writer_options.block_rows = options_.run_block_rows;
  URBANE_ASSIGN_OR_RETURN(
      store::StoreWriter writer,
      store::StoreWriter::Create(path, schema_, writer_options));
  for (const auto& run : prefix) {
    URBANE_RETURN_IF_ERROR(writer.Append(run->table));
  }
  URBANE_ASSIGN_OR_RETURN(const store::StoreWriterStats stats,
                          writer.Finish());
  (void)stats;
  URBANE_ASSIGN_OR_RETURN(
      std::shared_ptr<const LiveRun> merged,
      OpenStoreRun(generation, path, prefix.front()->wal_lo,
                   prefix.back()->wal_hi));

  std::vector<std::shared_ptr<const LiveRun>> runs_snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    runs_.erase(runs_.begin(), runs_.begin() + prefix.size());
    runs_.insert(runs_.begin(), merged);
    runs_snapshot = runs_;
    ++counters_.compactions;

    LogLocked({++append_seq_, merged->time_range.first,
               merged->time_range.second + 1});
  }
  URBANE_RETURN_IF_ERROR(CommitManifest(runs_snapshot, wal_floor));
  for (const auto& run : prefix) {
    ::unlink(run->path.c_str());
  }
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global().GetCounter("ingest.compactions").Add(1);
  }
  return Status::OK();
}

LiveSnapshot LiveTable::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  LiveSnapshot snapshot;
  snapshot.base = base_;
  snapshot.base_zone_maps = base_zone_maps_;
  snapshot.runs = runs_;
  snapshot.hot_owner = hot_;
  snapshot.hot_rows = hot_->size();
  auto view = hot_->View(hot_->size());
  snapshot.hot = std::move(view).value();  // rows == size() never fails
  snapshot.hot_generation = hot_generation_;
  snapshot.hot_sequence = hot_sequence_;
  snapshot.hot_bounds = hot_->bounds();
  snapshot.hot_time_range = hot_->time_range();
  snapshot.watermark = watermark_;
  snapshot.append_seq = append_seq_;
  return snapshot;
}

std::uint64_t LiveTable::watermark() const {
  std::lock_guard<std::mutex> lock(mu_);
  return watermark_;
}

IngestStats LiveTable::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  IngestStats stats = counters_;
  stats.watermark = watermark_;
  stats.base_rows = base_rows_;
  stats.hot_rows = hot_->size();
  for (const auto& run : runs_) {
    if (run->store_backed()) {
      ++stats.store_runs;
    } else {
      ++stats.sealed_runs;
    }
  }
  stats.wal_bytes = wal_.open() ? wal_.bytes() : 0;
  return stats;
}

void LiveTable::LogLocked(AppendLogEntry entry) {
  append_log_.push_back(entry);
  while (append_log_.size() > options_.append_log_entries) {
    append_log_floor_ = append_log_.front().seq;
    append_log_.pop_front();
  }
}

std::vector<AppendLogEntry> LiveTable::EntriesSince(std::uint64_t since,
                                                    bool* overflowed) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (overflowed != nullptr) {
    *overflowed = since < append_log_floor_;
  }
  std::vector<AppendLogEntry> entries;
  for (const AppendLogEntry& entry : append_log_) {
    if (entry.seq > since) {
      entries.push_back(entry);
    }
  }
  return entries;
}

}  // namespace urbane::ingest
