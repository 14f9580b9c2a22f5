#ifndef URBANE_STORE_STORE_WRITER_H_
#define URBANE_STORE_STORE_WRITER_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/zone_map.h"
#include "data/point_table.h"
#include "data/schema.h"
#include "util/status.h"

namespace urbane::store {

struct StoreWriterOptions {
  /// Rows per block — the zone-map pruning granule.
  /// 64Ki rows ≈ 1 MiB per f32 column.
  std::uint64_t block_rows = 64 * 1024;
  /// Rows buffered in memory before a Morton sort + flush to the column
  /// spill files. Bounds the writer's memory footprint independently of the
  /// dataset size; larger batches give better spatial clustering.
  std::uint64_t sort_batch_rows = 1024 * 1024;
};

struct StoreWriterStats {
  std::uint64_t rows_written = 0;
  std::uint64_t blocks_written = 0;
  std::uint64_t file_bytes = 0;
};

/// Streaming writer for the UST1 block store. Append() batches are
/// Morton-sorted (points quantized to a 2^16 grid over the batch bounds,
/// stable by Z-order key) so consecutive rows — and therefore blocks — are
/// spatially clustered, which is what makes the per-block bboxes tight
/// enough to prune on. Rows spill to per-column temp files as batches
/// flush, so peak memory is O(sort_batch_rows), not O(total rows);
/// Finish() assembles the final file through AtomicFileWriter (temp +
/// fsync + rename), so an interrupted conversion never leaves a partial
/// store at the target path.
class StoreWriter {
 public:
  ~StoreWriter();
  StoreWriter(StoreWriter&&) noexcept;
  StoreWriter& operator=(StoreWriter&&) = delete;
  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  static StatusOr<StoreWriter> Create(const std::string& path,
                                      data::Schema schema,
                                      const StoreWriterOptions& options =
                                          StoreWriterOptions());

  /// Appends a batch of points (schema must match Create's). The batch's
  /// rows are re-ordered internally; order across Append calls is
  /// preserved batch-to-batch.
  Status Append(const data::PointTable& batch);

  /// Flushes, assembles, and atomically publishes the store file.
  StatusOr<StoreWriterStats> Finish();

 private:
  StoreWriter() = default;

  Status FlushBatch();
  void FoldRowIntoZoneMap(float x, float y, std::int64_t t,
                          const std::vector<const float*>& attrs,
                          std::size_t row_in_batch);
  void Abandon();

  std::string path_;
  data::Schema schema_;
  StoreWriterOptions options_;

  // One spill file per column: x, y, t, then one per attribute.
  std::vector<std::FILE*> spill_files_;
  std::vector<std::string> spill_paths_;

  // The in-memory batch awaiting its Morton sort.
  std::vector<float> batch_xs_;
  std::vector<float> batch_ys_;
  std::vector<std::int64_t> batch_ts_;
  std::vector<std::vector<float>> batch_attrs_;

  // Zone-map accumulation across the whole row stream.
  std::vector<core::BlockZoneMap> zone_maps_;
  core::BlockZoneMap current_;
  bool current_open_ = false;

  std::uint64_t rows_written_ = 0;
  bool finished_ = false;
};

/// One-call conversion of an in-memory table (convenience for the CLI and
/// tests): streams `table` through a StoreWriter in sort_batch_rows chunks.
StatusOr<StoreWriterStats> WritePointStore(
    const data::PointTable& table, const std::string& path,
    const StoreWriterOptions& options = StoreWriterOptions());

}  // namespace urbane::store

#endif  // URBANE_STORE_STORE_WRITER_H_
