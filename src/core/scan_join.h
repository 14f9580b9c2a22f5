#ifndef URBANE_CORE_SCAN_JOIN_H_
#define URBANE_CORE_SCAN_JOIN_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/query.h"
#include "index/rtree.h"

namespace urbane::core {

/// Exact full-scan baseline: every (filtered) point is tested against the
/// regions whose bounding box contains it (bounding boxes served from a
/// packed R-tree so the scan is O(P log R) instead of O(P * R)).
///
/// This is the reference oracle the tests compare every other executor
/// against, and the "no preprocessing, no GPU" baseline of the evaluation.
///
/// Like the raster joins, it composes an ordered list of point sources over
/// one shared R-tree: a query walks each source's selected rows in
/// ascending order, source after source, so every region accumulates in
/// concatenated-row order, bit for bit like one table holding the rows.
/// Create is the one-source case.
class ScanJoin : public SpatialAggregationExecutor {
 public:
  /// The one-source join over `points`; `points`/`regions` must outlive
  /// this.
  static StatusOr<std::unique_ptr<ScanJoin>> Create(
      const data::PointTable& points, const data::RegionSet& regions);

  /// The region-side state a scan probes: the packed R-tree of the
  /// regions' bounding boxes.
  static StatusOr<std::shared_ptr<const index::RTree>> BuildRegionIndex(
      const data::RegionSet& regions);

  /// The join over `sources`, in row order, probing `rtree` (built over
  /// `regions` by BuildRegionIndex). Queries are validated against `points`
  /// — any table with the sources' schema. Every table must outlive the
  /// executor.
  ScanJoin(const data::PointTable& points, const data::RegionSet& regions,
           std::shared_ptr<const index::RTree> rtree,
           std::vector<const data::PointTable*> sources)
      : points_(points),
        regions_(regions),
        rtree_(std::move(rtree)),
        sources_(std::move(sources)) {}

  StatusOr<PartialResult> ExecutePartial(
      const AggregationQuery& query) const override;
  std::string name() const override { return "scan"; }
  bool exact() const override { return true; }

  std::size_t MemoryBytes() const { return rtree_->MemoryBytes(); }

 private:
  const data::PointTable& points_;
  const data::RegionSet& regions_;
  std::shared_ptr<const index::RTree> rtree_;
  std::vector<const data::PointTable*> sources_;
};

}  // namespace urbane::core

#endif  // URBANE_CORE_SCAN_JOIN_H_
