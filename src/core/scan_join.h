#ifndef URBANE_CORE_SCAN_JOIN_H_
#define URBANE_CORE_SCAN_JOIN_H_

#include <memory>

#include "core/query.h"
#include "index/rtree.h"

namespace urbane::core {

/// Exact full-scan baseline: every (filtered) point is tested against the
/// regions whose bounding box contains it (bounding boxes served from a
/// packed R-tree so the scan is O(P log R) instead of O(P * R)).
///
/// This is the reference oracle the tests compare every other executor
/// against, and the "no preprocessing, no GPU" baseline of the evaluation.
class ScanJoin : public SpatialAggregationExecutor {
 public:
  /// Builds the region-box R-tree; `points`/`regions` must outlive this.
  static StatusOr<std::unique_ptr<ScanJoin>> Create(
      const data::PointTable& points, const data::RegionSet& regions);

  StatusOr<PartialResult> ExecutePartial(
      const AggregationQuery& query) const override;
  std::string name() const override { return "scan"; }
  bool exact() const override { return true; }

  std::size_t MemoryBytes() const { return rtree_.MemoryBytes(); }

 private:
  ScanJoin(const data::PointTable& points, const data::RegionSet& regions,
           index::RTree rtree)
      : points_(points), regions_(regions), rtree_(std::move(rtree)) {}

  const data::PointTable& points_;
  const data::RegionSet& regions_;
  index::RTree rtree_;
};

}  // namespace urbane::core

#endif  // URBANE_CORE_SCAN_JOIN_H_
