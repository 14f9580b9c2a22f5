#ifndef URBANE_DATA_REGION_H_
#define URBANE_DATA_REGION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/bounding_box.h"
#include "geometry/polygon.h"
#include "util/status.h"

namespace urbane::data {

/// One named region (neighborhood, census tract, zip code): id + geometry.
struct Region {
  std::int64_t id = 0;
  std::string name;
  geometry::MultiPolygon geometry;
};

/// An ordered collection of regions — the `R` side of the paper's
/// aggregation query. Region ids are unique; the *index* of a region in the
/// set is what aggregation results are keyed by.
class RegionSet {
 public:
  RegionSet() = default;

  /// Fails on duplicate ids or empty geometries.
  Status Add(Region region);

  std::size_t size() const { return regions_.size(); }
  bool empty() const { return regions_.empty(); }
  const Region& operator[](std::size_t i) const { return regions_[i]; }
  const std::vector<Region>& regions() const { return regions_; }

  /// Index of the region with this id, or -1.
  int IndexOfId(std::int64_t id) const;

  /// Union of all region bounds.
  geometry::BoundingBox Bounds() const;

  /// Total vertex count over all regions (polygon-complexity metric used by
  /// the F5 experiment).
  std::size_t TotalVertexCount() const;

  /// One bounding box per region, in order (feeds the R-tree).
  std::vector<geometry::BoundingBox> RegionBounds() const;

  std::size_t MemoryBytes() const;

 private:
  std::vector<Region> regions_;
};

}  // namespace urbane::data

#endif  // URBANE_DATA_REGION_H_
