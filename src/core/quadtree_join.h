#ifndef URBANE_CORE_QUADTREE_JOIN_H_
#define URBANE_CORE_QUADTREE_JOIN_H_

#include <memory>

#include "core/query.h"
#include "index/quadtree.h"

namespace urbane::core {

/// Configuration of the quadtree baseline.
struct QuadtreeJoinOptions {
  std::size_t max_points_per_leaf = 64;
  int max_depth = 16;
};

/// Exact quadtree-join baseline: the adaptive sibling of IndexJoin. A
/// bucket PR-quadtree is built over the points once. Each query evaluates
/// its filter once (EvaluateFilter); region probes then take the selected
/// points of whole subtrees that are provably inside the polygon and run
/// exact tests only on the selected points of straddling leaves. Under the
/// heavy spatial skew of urban data the adaptive subdivision puts small
/// leaves exactly where the uniform grid drowns in points — the trade the
/// index-structure comparison in the companion evaluation examines.
class QuadtreeJoin : public SpatialAggregationExecutor {
 public:
  static StatusOr<std::unique_ptr<QuadtreeJoin>> Create(
      const data::PointTable& points, const data::RegionSet& regions,
      const QuadtreeJoinOptions& options = QuadtreeJoinOptions());

  StatusOr<PartialResult> ExecutePartial(
      const AggregationQuery& query) const override;
  std::string name() const override { return "quadtree"; }
  bool exact() const override { return true; }

  const index::Quadtree& tree() const { return tree_; }
  std::size_t MemoryBytes() const { return tree_.MemoryBytes(); }

 private:
  QuadtreeJoin(const data::PointTable& points, const data::RegionSet& regions,
               index::Quadtree tree)
      : points_(points), regions_(regions), tree_(std::move(tree)) {}

  const data::PointTable& points_;
  const data::RegionSet& regions_;
  index::Quadtree tree_;
};

}  // namespace urbane::core

#endif  // URBANE_CORE_QUADTREE_JOIN_H_
