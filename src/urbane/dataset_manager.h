#ifndef URBANE_URBANE_DATASET_MANAGER_H_
#define URBANE_URBANE_DATASET_MANAGER_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/spatial_aggregation.h"
#include "core/sql.h"
#include "data/point_table.h"
#include "data/region.h"
#include "ingest/live_engine.h"
#include "ingest/live_table.h"
#include "store/store_reader.h"
#include "store/store_writer.h"
#include "util/status.h"

namespace urbane::app {

/// Urbane's data layer: named point data sets (taxi, 311, crime, ...) and
/// named region layers (boroughs, neighborhoods, tracts), plus lazily-built
/// query engines for every (data set, region layer) pair.
///
/// Thread-safety: all methods may be called concurrently (the query server
/// binds names from N worker threads at once). The registry maps are
/// guarded by one mutex; registered tables/regions are immutable after
/// registration and engines are internally thread-safe, so pointers handed
/// out stay valid and usable without the lock. Lazy builds (first Engine
/// call for a pair) happen under the lock — concurrent first touches
/// serialize rather than building twice.
class DatasetManager {
 public:
  DatasetManager() = default;

  DatasetManager(const DatasetManager&) = delete;
  DatasetManager& operator=(const DatasetManager&) = delete;

  Status AddPointDataset(const std::string& name, data::PointTable table);
  Status AddRegionLayer(const std::string& name, data::RegionSet regions);

  /// Registers a UST1 block store as a point data set. The table is served
  /// zero-copy from the mmap'ed file when possible (rows are paged in on
  /// demand, so data sets larger than RAM work) and engines built for it
  /// automatically prune blocks via the store's zone maps. Falls back to
  /// materializing the rows when the file cannot be mapped.
  Status AddStoreDataset(const std::string& name, const std::string& path);

  /// Converts a registered point data set to a UST1 block store at `path`
  /// (atomic: the file appears only when complete). Returns writer stats.
  StatusOr<store::StoreWriterStats> ConvertToStore(
      const std::string& dataset, const std::string& path,
      std::uint64_t block_rows = 64 * 1024);

  std::vector<std::string> PointDatasetNames() const;
  std::vector<std::string> RegionLayerNames() const;

  StatusOr<const data::PointTable*> PointDataset(
      const std::string& name) const;
  StatusOr<const data::RegionSet*> RegionLayer(const std::string& name) const;

  /// Query engine for a (data set, region layer) pair; built on first use
  /// and cached (so raster canvases / indexes are reused across frames).
  StatusOr<core::SpatialAggregation*> Engine(
      const std::string& dataset, const std::string& region_layer,
      const core::RasterJoinOptions& raster_options =
          core::RasterJoinOptions());

  /// Scatter-gather fan-out applied to every engine — existing and future
  /// (the server's `--shards` flag lands here). See
  /// SpatialAggregation::set_num_shards for the semantics; 0/1 = unsharded.
  void set_engine_shards(std::size_t num_shards);
  std::size_t engine_shards() const;

  /// Makes `dataset` appendable: opens (or crash-recovers) an
  /// ingest::LiveTable rooted at `directory` and layers it over the
  /// registered table of the same name when one exists (its store's zone
  /// maps ride along). Unregistered names become fresh live data sets whose
  /// schema is `attribute_names` (must be empty when a base exists — the
  /// base's schema wins). Queries against the name route to the live
  /// engine from here on.
  Status EnableIngest(const std::string& dataset,
                      const std::string& directory,
                      std::vector<std::string> attribute_names = {},
                      const ingest::IngestOptions& options =
                          ingest::IngestOptions());

  bool IsLive(const std::string& dataset) const;
  std::vector<std::string> LiveDatasetNames() const;

  /// Appends a batch to a live data set; returns the new watermark.
  /// ResourceExhausted when the write path is saturated (HTTP 429).
  StatusOr<std::uint64_t> IngestBatch(const std::string& dataset,
                                      const data::PointTable& batch);

  /// Seals + flushes every pending run of a live data set to UST1 files.
  Status FlushIngest(const std::string& dataset);

  /// Merges a live data set's store runs into one.
  Status CompactIngest(const std::string& dataset);

  StatusOr<ingest::IngestStats> IngestStatsFor(
      const std::string& dataset) const;

  /// Attribute schema appended batches must match (arity-wise).
  StatusOr<data::Schema> LiveSchema(const std::string& dataset) const;

  /// Live query engine for a (live data set, region layer) pair; built on
  /// first use and cached, mirroring Engine().
  StatusOr<ingest::LiveEngine*> Live(const std::string& dataset,
                                     const std::string& region_layer);

  /// Loads every entry of a workspace manifest (data::Catalog JSON file);
  /// entry paths are resolved relative to the manifest's directory. A
  /// "ust" point entry is registered through AddStoreDataset, so it is
  /// memory-mapped and prunes by zone map.
  Status LoadWorkspace(const std::string& manifest_path);

  /// Writes every registered data set as a UST1 store `<name>.ust` and
  /// every region layer as a URG1 snapshot `<name>.urg` into `directory`,
  /// plus the manifest `directory/urbane.workspace.json`. A reloaded point
  /// set comes back in the store's Morton row order: counts match the
  /// saved session, float aggregates match an in-memory engine over that
  /// row order bit for bit, but need not match the pre-save bits.
  Status SaveWorkspace(const std::string& directory) const;

  /// One statement's answer (ExecuteStatement).
  struct StatementResult {
    core::QueryResult result;
    /// The method that ran: the one asked for, or the planner's choice.
    core::ExecutionMethod method = core::ExecutionMethod::kScan;
    /// As-of row count the answer is exact for; live data sets only.
    std::optional<std::uint64_t> watermark;
  };

  /// Runs a parsed statement on the engine its FROM names bind to: a live
  /// data set's snapshot engine, or a registered data set's engine. Without
  /// a `method` the planner picks one that answers exactly. `control` and
  /// `profile` (both nullable, borrowed) ride on the query: the deadline
  /// hook and the per-query breakdown (see obs/profile.h).
  StatusOr<StatementResult> ExecuteStatement(
      core::ParsedQuery statement,
      std::optional<core::ExecutionMethod> method,
      const core::QueryControl* control = nullptr,
      obs::QueryProfile* profile = nullptr);

  /// Parses and runs a statement in the paper's SQL dialect, e.g.
  ///   "SELECT AVG(fare_amount) FROM taxi, neighborhoods
  ///    WHERE t IN [1230768000, 1233446400) AND passenger_count IN [1, 2]"
  /// through ExecuteStatement with `method`; a non-null `watermark`
  /// receives a live data set's as-of row count.
  StatusOr<core::QueryResult> ExecuteSql(const std::string& sql,
                                         core::ExecutionMethod method,
                                         obs::QueryProfile* profile = nullptr,
                                         std::uint64_t* watermark = nullptr);

 private:
  StatusOr<const data::PointTable*> PointDatasetLocked(
      const std::string& name) const;
  StatusOr<const data::RegionSet*> RegionLayerLocked(
      const std::string& name) const;

  mutable std::mutex mu_;
  /// Fan-out stamped onto every engine (see set_engine_shards).
  std::size_t engine_shards_ = 1;
  /// Open store readers backing store-registered data sets (the PointTable
  /// in points_ is a view into the reader's mapping, so the reader must
  /// stay alive; keyed by data set name).
  std::map<std::string, std::unique_ptr<store::StoreReader>> stores_;
  std::map<std::string, std::unique_ptr<data::PointTable>> points_;
  std::map<std::string, std::unique_ptr<data::RegionSet>> regions_;
  std::map<std::string, std::unique_ptr<core::SpatialAggregation>> engines_;
  /// Live (appendable) data sets and their lazily-built engines, keyed
  /// like engines_ ("dataset\x1flayer"). LiveTable and LiveEngine are
  /// internally thread-safe, so both are used outside mu_ once looked up.
  std::map<std::string, std::unique_ptr<ingest::LiveTable>> live_;
  std::map<std::string, std::unique_ptr<ingest::LiveEngine>> live_engines_;
};

}  // namespace urbane::app

#endif  // URBANE_URBANE_DATASET_MANAGER_H_
