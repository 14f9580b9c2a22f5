#include "geometry/segment.h"

#include <gtest/gtest.h>

namespace urbane::geometry {
namespace {

TEST(PointOnSegmentTest, DetectsCollinearWithinBounds) {
  const Segment s{{0, 0}, {4, 4}};
  EXPECT_TRUE(PointOnSegment({2, 2}, s));
  EXPECT_TRUE(PointOnSegment({0, 0}, s));
  EXPECT_TRUE(PointOnSegment({4, 4}, s));
  EXPECT_FALSE(PointOnSegment({5, 5}, s));   // collinear but outside
  EXPECT_FALSE(PointOnSegment({2, 2.1}, s));  // off the line
}

TEST(SegmentsIntersectTest, ProperCrossing) {
  EXPECT_TRUE(SegmentsIntersect({{0, 0}, {4, 4}}, {{0, 4}, {4, 0}}));
}

TEST(SegmentsIntersectTest, DisjointSegments) {
  EXPECT_FALSE(SegmentsIntersect({{0, 0}, {1, 1}}, {{2, 2}, {3, 3}}));
  EXPECT_FALSE(SegmentsIntersect({{0, 0}, {1, 0}}, {{0, 1}, {1, 1}}));
}

TEST(SegmentsIntersectTest, TouchingEndpointCounts) {
  EXPECT_TRUE(SegmentsIntersect({{0, 0}, {2, 2}}, {{2, 2}, {4, 0}}));
  EXPECT_TRUE(SegmentsIntersect({{0, 0}, {4, 0}}, {{2, 0}, {2, 5}}));
}

TEST(SegmentsIntersectTest, CollinearOverlapCounts) {
  EXPECT_TRUE(SegmentsIntersect({{0, 0}, {3, 0}}, {{2, 0}, {5, 0}}));
  EXPECT_FALSE(SegmentsIntersect({{0, 0}, {1, 0}}, {{2, 0}, {3, 0}}));
}

TEST(DistancePointToSegmentTest, PerpendicularProjection) {
  const Segment s{{0, 0}, {10, 0}};
  EXPECT_DOUBLE_EQ(SquaredDistancePointToSegment({5, 3}, s), 9.0);
}

TEST(DistancePointToSegmentTest, ClampsToEndpoints) {
  const Segment s{{0, 0}, {10, 0}};
  EXPECT_DOUBLE_EQ(SquaredDistancePointToSegment({-3, 4}, s), 25.0);
  EXPECT_DOUBLE_EQ(SquaredDistancePointToSegment({13, 4}, s), 25.0);
}

TEST(DistancePointToSegmentTest, DegenerateSegmentIsPointDistance) {
  const Segment s{{1, 1}, {1, 1}};
  EXPECT_DOUBLE_EQ(SquaredDistancePointToSegment({4, 5}, s), 25.0);
}

TEST(SquaredDistanceTest, MatchesSquareOfDistance) {
  // (3, 0) projects onto (1.5, 1.5): the distance is 3 / sqrt(2).
  const Segment s{{0, 0}, {2, 2}};
  EXPECT_DOUBLE_EQ(SquaredDistancePointToSegment({3, 0}, s), 4.5);
}

}  // namespace
}  // namespace urbane::geometry
