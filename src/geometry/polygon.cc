#include "geometry/polygon.h"

#include <algorithm>
#include <cmath>

#include "geometry/segment.h"
#include "util/string_util.h"

namespace urbane::geometry {

double RingSignedArea(const Ring& ring) {
  const std::size_t n = ring.size();
  if (n < 3) return 0.0;
  double twice_area = 0.0;
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    twice_area += ring[j].Cross(ring[i]);
  }
  return 0.5 * twice_area;
}

bool RingIsCounterClockwise(const Ring& ring) {
  return RingSignedArea(ring) > 0.0;
}

bool RingBoundaryContains(const Ring& ring, const Vec2& p) {
  const std::size_t n = ring.size();
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    if (PointOnSegment(p, Segment{ring[j], ring[i]})) {
      return true;
    }
  }
  return false;
}

bool RingContains(const Ring& ring, const Vec2& p) {
  const std::size_t n = ring.size();
  if (n < 3) return false;
  if (RingBoundaryContains(ring, p)) return true;
  // Crossing-number: count edges crossing the upward ray from p. The
  // half-open vertex rule (y_lo <= p.y < y_hi) counts each vertex once.
  bool inside = false;
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    const Vec2& a = ring[j];
    const Vec2& b = ring[i];
    if ((a.y > p.y) != (b.y > p.y)) {
      const double x_at_y = a.x + (b.x - a.x) * (p.y - a.y) / (b.y - a.y);
      if (p.x < x_at_y) {
        inside = !inside;
      }
    }
  }
  return inside;
}

bool RingContainsWinding(const Ring& ring, const Vec2& p) {
  const std::size_t n = ring.size();
  if (n < 3) return false;
  if (RingBoundaryContains(ring, p)) return true;
  int winding = 0;
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    const Vec2& a = ring[j];
    const Vec2& b = ring[i];
    if (a.y <= p.y) {
      if (b.y > p.y && Orient2d(a, b, p) > 0) {
        ++winding;
      }
    } else {
      if (b.y <= p.y && Orient2d(a, b, p) < 0) {
        --winding;
      }
    }
  }
  return winding != 0;
}

std::size_t Polygon::VertexCount() const {
  std::size_t count = outer_.size();
  for (const Ring& hole : holes_) {
    count += hole.size();
  }
  return count;
}

double Polygon::Area() const {
  double area = std::fabs(RingSignedArea(outer_));
  for (const Ring& hole : holes_) {
    area -= std::fabs(RingSignedArea(hole));
  }
  return std::max(area, 0.0);
}

double Polygon::Perimeter() const {
  auto ring_perimeter = [](const Ring& ring) {
    double total = 0.0;
    const std::size_t n = ring.size();
    for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
      total += ring[j].DistanceTo(ring[i]);
    }
    return total;
  };
  double total = ring_perimeter(outer_);
  for (const Ring& hole : holes_) {
    total += ring_perimeter(hole);
  }
  return total;
}

namespace {

// Area-weighted centroid of one ring (sign follows orientation).
void AccumulateRingCentroid(const Ring& ring, double& area_sum, Vec2& moment) {
  const std::size_t n = ring.size();
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    const double cross = ring[j].Cross(ring[i]);
    area_sum += cross;
    moment += (ring[j] + ring[i]) * cross;
  }
}

}  // namespace

Vec2 Polygon::Centroid() const {
  double area_sum = 0.0;
  Vec2 moment{0.0, 0.0};
  // Normalize() gives outer CCW (positive) and holes CW (negative), so the
  // signed accumulation subtracts holes automatically. For non-normalized
  // input we fix the signs ring by ring.
  {
    Ring ring = outer_;
    if (!RingIsCounterClockwise(ring)) std::reverse(ring.begin(), ring.end());
    AccumulateRingCentroid(ring, area_sum, moment);
  }
  for (const Ring& h : holes_) {
    Ring ring = h;
    if (RingIsCounterClockwise(ring)) std::reverse(ring.begin(), ring.end());
    AccumulateRingCentroid(ring, area_sum, moment);
  }
  if (area_sum == 0.0) {
    // Degenerate polygon: fall back to vertex average.
    Vec2 avg{0.0, 0.0};
    if (outer_.empty()) return avg;
    for (const Vec2& v : outer_) avg += v;
    return avg / static_cast<double>(outer_.size());
  }
  return moment / (3.0 * area_sum);
}

BoundingBox Polygon::Bounds() const {
  BoundingBox box;
  for (const Vec2& v : outer_) {
    box.Extend(v);
  }
  return box;
}

bool Polygon::Contains(const Vec2& p) const {
  if (!RingContains(outer_, p)) {
    return false;
  }
  for (const Ring& hole : holes_) {
    if (RingBoundaryContains(hole, p)) {
      return true;  // on a hole edge -> still part of the polygon
    }
    if (RingContains(hole, p)) {
      return false;
    }
  }
  return true;
}

bool Polygon::BoundaryContains(const Vec2& p) const {
  if (RingBoundaryContains(outer_, p)) return true;
  for (const Ring& hole : holes_) {
    if (RingBoundaryContains(hole, p)) return true;
  }
  return false;
}

void Polygon::Normalize() {
  if (!RingIsCounterClockwise(outer_)) {
    std::reverse(outer_.begin(), outer_.end());
  }
  for (Ring& hole : holes_) {
    if (RingIsCounterClockwise(hole)) {
      std::reverse(hole.begin(), hole.end());
    }
  }
}

bool Polygon::IsSimple() const {
  auto ring_is_simple = [](const Ring& ring) {
    const std::size_t n = ring.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Segment si{ring[i], ring[(i + 1) % n]};
      for (std::size_t j = i + 1; j < n; ++j) {
        // Skip adjacent edges (they share an endpoint by construction).
        if (j == i || (j + 1) % n == i || (i + 1) % n == j) {
          continue;
        }
        const Segment sj{ring[j], ring[(j + 1) % n]};
        if (SegmentsIntersect(si, sj)) {
          return false;
        }
      }
    }
    return true;
  };
  if (!ring_is_simple(outer_)) return false;
  for (const Ring& hole : holes_) {
    if (!ring_is_simple(hole)) return false;
  }
  return true;
}

urbane::Status Polygon::Validate() const {
  if (outer_.size() < 3) {
    return urbane::Status::InvalidArgument(urbane::StringPrintf(
        "outer ring has %zu vertices (need >= 3)", outer_.size()));
  }
  if (RingSignedArea(outer_) == 0.0) {
    return urbane::Status::InvalidArgument("outer ring has zero area");
  }
  for (std::size_t h = 0; h < holes_.size(); ++h) {
    if (holes_[h].size() < 3) {
      return urbane::Status::InvalidArgument(urbane::StringPrintf(
          "hole %zu has %zu vertices (need >= 3)", h, holes_[h].size()));
    }
    if (RingSignedArea(holes_[h]) == 0.0) {
      return urbane::Status::InvalidArgument(
          urbane::StringPrintf("hole %zu has zero area", h));
    }
  }
  if (!IsSimple()) {
    return urbane::Status::InvalidArgument("polygon ring self-intersects");
  }
  return urbane::Status::OK();
}

std::size_t MultiPolygon::VertexCount() const {
  std::size_t count = 0;
  for (const Polygon& part : parts_) {
    count += part.VertexCount();
  }
  return count;
}

double MultiPolygon::Area() const {
  double area = 0.0;
  for (const Polygon& part : parts_) {
    area += part.Area();
  }
  return area;
}

Vec2 MultiPolygon::Centroid() const {
  double total_area = 0.0;
  Vec2 weighted{0.0, 0.0};
  for (const Polygon& part : parts_) {
    const double a = part.Area();
    weighted += part.Centroid() * a;
    total_area += a;
  }
  if (total_area == 0.0) {
    return parts_.empty() ? Vec2{0.0, 0.0} : parts_.front().Centroid();
  }
  return weighted / total_area;
}

BoundingBox MultiPolygon::Bounds() const {
  BoundingBox box;
  for (const Polygon& part : parts_) {
    box.Extend(part.Bounds());
  }
  return box;
}

bool MultiPolygon::Contains(const Vec2& p) const {
  for (const Polygon& part : parts_) {
    if (part.Contains(p)) {
      return true;
    }
  }
  return false;
}

void MultiPolygon::Normalize() {
  for (Polygon& part : parts_) {
    part.Normalize();
  }
}

Polygon MakeRegularPolygon(const Vec2& center, double radius,
                           std::size_t vertex_count, double phase) {
  Ring ring;
  ring.reserve(vertex_count);
  for (std::size_t i = 0; i < vertex_count; ++i) {
    const double angle =
        phase + 2.0 * M_PI * static_cast<double>(i) /
                    static_cast<double>(vertex_count);
    ring.push_back(
        {center.x + radius * std::cos(angle), center.y + radius * std::sin(angle)});
  }
  return Polygon(std::move(ring));
}

}  // namespace urbane::geometry
