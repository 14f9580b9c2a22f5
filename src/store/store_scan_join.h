#ifndef URBANE_STORE_STORE_SCAN_JOIN_H_
#define URBANE_STORE_STORE_SCAN_JOIN_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/query.h"
#include "data/point_table.h"
#include "data/region.h"
#include "index/rtree.h"
#include "store/block_cache.h"
#include "store/store_reader.h"

namespace urbane::store {

/// Out-of-core exact scan: streams the store block-at-a-time through the
/// block cache (pread mode needs no mapping of the whole file), pruning
/// blocks by zone map before any byte of them is read. Rows within and
/// across blocks are visited in store order — identical to the row order
/// the mmap'ed view exposes — so results are bit-identical to a serial
/// in-memory ScanJoin over the same store. An attached profile also gets
/// the query's block accounting (blocks total / pruned / scanned) and its
/// block-cache reads, hits and bytes.
class StoreScanJoin : public core::SpatialAggregationExecutor {
 public:
  /// `reader`, `cache`, and `regions` must outlive this. Builds the same
  /// region-box R-tree as the in-memory scan.
  static StatusOr<std::unique_ptr<StoreScanJoin>> Create(
      const StoreReader& reader, BlockCache& cache,
      const data::RegionSet& regions);

  /// `query.points` may be null (the store supplies the rows); if set, it
  /// is only used to validate the schema.
  StatusOr<core::PartialResult> ExecutePartial(
      const core::AggregationQuery& query) const override;
  std::string name() const override { return "store_scan"; }
  bool exact() const override { return true; }

 private:
  StoreScanJoin(const StoreReader& reader, BlockCache& cache,
                const data::RegionSet& regions, index::RTree rtree)
      : reader_(reader),
        cache_(cache),
        regions_(regions),
        rtree_(std::move(rtree)),
        schema_table_(reader.schema()) {}

  const StoreReader& reader_;
  BlockCache& cache_;
  const data::RegionSet& regions_;
  index::RTree rtree_;
  /// Empty table carrying the store's schema, used to validate queries and
  /// compile filters without materializing any rows.
  data::PointTable schema_table_;
};

}  // namespace urbane::store

#endif  // URBANE_STORE_STORE_SCAN_JOIN_H_
