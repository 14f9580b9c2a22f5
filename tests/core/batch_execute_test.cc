#include <gtest/gtest.h>

#include "core/raster_join.h"
#include "obs/profile.h"
#include "testing/test_worlds.h"

namespace urbane::core {
namespace {

TEST(ExecuteBatchTest, EmptyBatchIsEmpty) {
  const auto points = testing::MakeUniformPoints(100, 1);
  const auto regions = testing::MakeRandomRegions(2, 1);
  auto raster = BoundedRasterJoin::Create(points, regions);
  ASSERT_TRUE(raster.ok());
  const auto results = (*raster)->ExecuteBatch({});
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST(ExecuteBatchTest, MatchesIndividualExecutes) {
  const auto points = testing::MakeUniformPoints(8000, 2);
  const auto regions = testing::MakeRandomRegions(5, 3);
  RasterJoinOptions options;
  options.resolution = 160;
  auto raster = BoundedRasterJoin::Create(points, regions, options);
  ASSERT_TRUE(raster.ok());

  AggregationQuery base;
  base.points = &points;
  base.regions = &regions;
  base.filter.WithTime(10000, 70000);

  std::vector<AggregationQuery> batch;
  for (const AggregateSpec& spec :
       {AggregateSpec::Count(), AggregateSpec::Sum("v"),
        AggregateSpec::Avg("v"), AggregateSpec::Min("v"),
        AggregateSpec::Max("v")}) {
    AggregationQuery query = base;
    query.aggregate = spec;
    batch.push_back(query);
  }
  const auto batched = (*raster)->ExecuteBatch(batch);
  ASSERT_TRUE(batched.ok()) << batched.status();
  ASSERT_EQ(batched->size(), batch.size());
  for (std::size_t q = 0; q < batch.size(); ++q) {
    const auto individual = (*raster)->Execute(batch[q]);
    ASSERT_TRUE(individual.ok());
    for (std::size_t r = 0; r < regions.size(); ++r) {
      EXPECT_EQ((*batched)[q].counts[r], individual->counts[r])
          << "query " << q << " region " << r;
      if (individual->counts[r] > 0) {
        EXPECT_NEAR((*batched)[q].values[r], individual->values[r], 1e-9)
            << "query " << q << " region " << r;
      }
      ASSERT_EQ((*batched)[q].error_bounds.size(),
                individual->error_bounds.size());
      EXPECT_NEAR((*batched)[q].error_bounds[r],
                  individual->error_bounds[r], 1e-9)
          << "query " << q << " region " << r;
    }
  }
}

TEST(ExecuteBatchTest, SharedSplatIsCheaperThanSeparateRuns) {
  const auto points = testing::MakeUniformPoints(40000, 4);
  const auto regions = testing::MakeRandomRegions(4, 5);
  RasterJoinOptions options;
  options.resolution = 256;
  auto raster = BoundedRasterJoin::Create(points, regions, options);
  ASSERT_TRUE(raster.ok());
  AggregationQuery base;
  base.points = &points;
  base.regions = &regions;
  std::vector<AggregationQuery> batch;
  for (const AggregateSpec& spec :
       {AggregateSpec::Count(), AggregateSpec::Sum("v"),
        AggregateSpec::Avg("v")}) {
    AggregationQuery query = base;
    query.aggregate = spec;
    batch.push_back(query);
  }
  obs::QueryProfile profile;
  batch.front().profile = &profile;
  ASSERT_TRUE((*raster)->ExecuteBatch(batch).ok());
  // SUM and AVG share one sum splat; COUNT shares the count splat: the
  // filter pass runs once, so points_scanned counts the table once. The
  // batch is one execution and reports into the front query's profile.
  EXPECT_EQ(profile.method, "raster");
  EXPECT_EQ(profile.totals.points_scanned, points.size());
}

TEST(ExecuteBatchTest, MismatchedFiltersRejected) {
  const auto points = testing::MakeUniformPoints(500, 6);
  const auto regions = testing::MakeRandomRegions(2, 7);
  auto raster = BoundedRasterJoin::Create(points, regions);
  ASSERT_TRUE(raster.ok());
  AggregationQuery a;
  a.points = &points;
  a.regions = &regions;
  AggregationQuery b = a;
  b.filter.WithTime(0, 100);
  EXPECT_FALSE((*raster)->ExecuteBatch({a, b}).ok());
  AggregationQuery c = a;
  c.filter.WithRange("v", 0, 1);
  EXPECT_FALSE((*raster)->ExecuteBatch({a, c}).ok());
}

TEST(ExecuteBatchTest, InvalidQueryInBatchRejected) {
  const auto points = testing::MakeUniformPoints(500, 8);
  const auto regions = testing::MakeRandomRegions(2, 9);
  auto raster = BoundedRasterJoin::Create(points, regions);
  ASSERT_TRUE(raster.ok());
  AggregationQuery good;
  good.points = &points;
  good.regions = &regions;
  AggregationQuery bad = good;
  bad.aggregate = AggregateSpec::Avg("missing");
  EXPECT_FALSE((*raster)->ExecuteBatch({good, bad}).ok());
}

}  // namespace
}  // namespace urbane::core
