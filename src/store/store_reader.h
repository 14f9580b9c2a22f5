#ifndef URBANE_STORE_STORE_READER_H_
#define URBANE_STORE_STORE_READER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/zone_map.h"
#include "data/point_table.h"
#include "data/schema.h"
#include "util/status.h"

namespace urbane::store {

struct StoreReaderOptions {
  /// Map the file read-only and serve MappedTable() zero-copy. Tests clear
  /// it to reach the fallback a failed mmap takes: no mapping, and only
  /// Materialize() (pread) works.
  bool use_mmap = true;
};

/// Validating reader for UST1 store files. Open() checks every on-disk
/// count and offset against the actual file size before any allocation —
/// the same contract as data::binary_io — so a truncated, bit-flipped, or
/// wrong-format file yields a clean IoError naming the byte offset, never
/// UB. All read paths (mmap and pread) are safe for concurrent use from
/// multiple threads once Open returns.
class StoreReader {
 public:
  ~StoreReader();
  StoreReader(StoreReader&&) noexcept;
  StoreReader& operator=(StoreReader&&) = delete;
  StoreReader(const StoreReader&) = delete;
  StoreReader& operator=(const StoreReader&) = delete;

  static StatusOr<StoreReader> Open(const std::string& path,
                                    const StoreReaderOptions& options =
                                        StoreReaderOptions());

  const std::string& path() const { return path_; }
  const data::Schema& schema() const { return schema_; }
  std::uint64_t row_count() const { return row_count_; }
  std::uint64_t block_rows() const { return block_rows_; }
  std::size_t block_count() const { return zone_maps_.block_count(); }
  const core::ZoneMapIndex& zone_maps() const { return zone_maps_; }
  bool mapped() const { return mapped_ != nullptr; }

  /// Zero-copy PointTable view over the whole mmap'ed file, with
  /// Bounds()/TimeRange() pre-cached from the zone maps (bit-exact with a
  /// scan). IoError in pread mode. The view borrows the mapping: it must
  /// not outlive this reader.
  StatusOr<data::PointTable> MappedTable() const;

  /// Full owning copy of the table in row order, one read per column
  /// section (pread, or memcpy from the map) — the fallback when the file
  /// cannot be mapped. Bounds()/TimeRange() are pre-cached from the zone
  /// maps, as for MappedTable().
  StatusOr<data::PointTable> Materialize() const;

 private:
  StoreReader() = default;

  /// Reads `bytes` at absolute `offset` into `dst` from map or fd.
  Status ReadAt(std::uint64_t offset, void* dst, std::uint64_t bytes,
                const char* what) const;

  std::string path_;
  data::Schema schema_;
  core::ZoneMapIndex zone_maps_;
  std::uint64_t row_count_ = 0;
  std::uint64_t block_rows_ = 0;
  std::uint64_t file_size_ = 0;

  // Absolute offsets of the column sections.
  std::uint64_t x_offset_ = 0;
  std::uint64_t y_offset_ = 0;
  std::uint64_t t_offset_ = 0;
  std::vector<std::uint64_t> attr_offsets_;

  int fd_ = -1;
  void* mapped_ = nullptr;  // nullptr in pread mode
};

}  // namespace urbane::store

#endif  // URBANE_STORE_STORE_READER_H_
