#include "store/store_scan_join.h"

#include <utility>

#include "core/filter.h"
#include "core/observe.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "store/block_cursor.h"
#include "util/timer.h"

namespace urbane::store {

StatusOr<std::unique_ptr<StoreScanJoin>> StoreScanJoin::Create(
    const StoreReader& reader, BlockCache& cache,
    const data::RegionSet& regions) {
  URBANE_ASSIGN_OR_RETURN(index::RTree rtree,
                          index::RTree::Build(regions.RegionBounds()));
  return std::unique_ptr<StoreScanJoin>(
      new StoreScanJoin(reader, cache, regions, std::move(rtree)));
}

StatusOr<core::PartialResult> StoreScanJoin::ExecutePartial(
    const core::AggregationQuery& query) const {
  // The store supplies the rows; rebind the query's table to the schema
  // carrier so the standard structural validation applies.
  core::AggregationQuery q = query;
  q.points = &schema_table_;
  if (q.regions == nullptr) {
    q.regions = &regions_;
  }
  URBANE_RETURN_IF_ERROR(q.Validate());
  obs::ProfilePassCosts costs;
  // Cache counters are global to the (possibly shared) BlockCache; the
  // before/after delta attributes this query's reads and hits. Exact while
  // no other query runs against the same cache concurrently.
  const BlockCacheStats cache_before =
      q.profile != nullptr ? cache_.stats() : BlockCacheStats();
  WallTimer timer;

  WallTimer filter_timer;
  URBANE_ASSIGN_OR_RETURN(core::CompiledFilter filter,
                          core::CompiledFilter::Compile(q.filter,
                                                        schema_table_));
  costs.filter_seconds = filter_timer.ElapsedSeconds();
  URBANE_RETURN_IF_ERROR(q.CheckControl());

  const int attr_col =
      q.aggregate.NeedsAttribute()
          ? reader_.schema().AttributeIndex(q.aggregate.attribute)
          : -1;

  BlockCursor cursor(reader_, cache_, q.filter);
  if (obs::MetricsEnabled() && cursor.blocks_pruned() > 0) {
    obs::MetricsRegistry::Global()
        .GetCounter("store.blocks_pruned")
        .Add(cursor.blocks_pruned());
    obs::MetricsRegistry::Global()
        .GetCounter("store.rows_pruned")
        .Add(cursor.rows_pruned());
  }

  core::PartialResult result;
  result.regions.resize(regions_.size());
  std::uint64_t blocks_scanned = 0;
  WallTimer reduce_timer;
  for (; !cursor.Done(); cursor.Advance()) {
    URBANE_RETURN_IF_ERROR(q.CheckControl());
    URBANE_ASSIGN_OR_RETURN(BlockCache::PinnedBlock pinned, cursor.Pin());
    URBANE_ASSIGN_OR_RETURN(data::PointTable view,
                            pinned->AsView(reader_.schema()));
    ++blocks_scanned;
    const float* attr =
        attr_col >= 0 ? view.attribute_data(static_cast<std::size_t>(attr_col))
                      : nullptr;
    const std::size_t rows = view.size();
    // Rows run in store order (ascending global row id), so every
    // accumulator sees the same value sequence as a serial scan of the
    // full table: results are bit-identical, including float SUM/AVG.
    for (std::size_t i = 0; i < rows; ++i) {
      if (!filter.Matches(view, i)) {
        continue;
      }
      ++costs.points_scanned;
      const geometry::Vec2 p{view.x(i), view.y(i)};
      const double value = attr ? static_cast<double>(attr[i]) : 1.0;
      rtree_.QueryPoint(p, [&](std::uint32_t region_index) {
        ++costs.pip_tests;
        if (regions_[region_index].geometry.Contains(p)) {
          result.regions[region_index].Add(value);
        }
      });
    }
  }
  costs.reduce_seconds = reduce_timer.ElapsedSeconds();
  costs.query_seconds = timer.ElapsedSeconds();
  if (q.profile != nullptr) {
    const BlockCacheStats cache_now = cache_.stats();
    q.profile->blocks_total = cursor.blocks_total();
    q.profile->blocks_pruned = cursor.blocks_pruned();
    q.profile->rows_pruned = cursor.rows_pruned();
    q.profile->store_blocks_scanned = blocks_scanned;
    q.profile->store_blocks_read = cache_now.blocks_read - cache_before.blocks_read;
    q.profile->store_cache_hits = cache_now.hits - cache_before.hits;
    q.profile->store_bytes_read = cache_now.bytes_read - cache_before.bytes_read;
  }
  core::PublishExecution(*this, "store_scan", 1, costs, q.profile);
  return result;
}

}  // namespace urbane::store
