#include "data/region.h"

#include "util/string_util.h"

namespace urbane::data {

Status RegionSet::Add(Region region) {
  if (region.geometry.empty()) {
    return Status::InvalidArgument("region '" + region.name +
                                   "' has empty geometry");
  }
  if (IndexOfId(region.id) >= 0) {
    return Status::AlreadyExists(
        StringPrintf("duplicate region id %lld",
                     static_cast<long long>(region.id)));
  }
  regions_.push_back(std::move(region));
  return Status::OK();
}

int RegionSet::IndexOfId(std::int64_t id) const {
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i].id == id) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

geometry::BoundingBox RegionSet::Bounds() const {
  geometry::BoundingBox box;
  for (const Region& region : regions_) {
    box.Extend(region.geometry.Bounds());
  }
  return box;
}

std::size_t RegionSet::TotalVertexCount() const {
  std::size_t count = 0;
  for (const Region& region : regions_) {
    count += region.geometry.VertexCount();
  }
  return count;
}

std::vector<geometry::BoundingBox> RegionSet::RegionBounds() const {
  std::vector<geometry::BoundingBox> boxes;
  boxes.reserve(regions_.size());
  for (const Region& region : regions_) {
    boxes.push_back(region.geometry.Bounds());
  }
  return boxes;
}

std::size_t RegionSet::MemoryBytes() const {
  std::size_t bytes = regions_.capacity() * sizeof(Region);
  for (const Region& region : regions_) {
    bytes += region.name.capacity();
    for (const geometry::Polygon& part : region.geometry.parts()) {
      bytes += part.outer().capacity() * sizeof(geometry::Vec2);
      for (const geometry::Ring& hole : part.holes()) {
        bytes += hole.capacity() * sizeof(geometry::Vec2);
      }
    }
  }
  return bytes;
}

}  // namespace urbane::data
