// End-to-end flows mirroring the demo: generate city data, persist and
// reload it, run the paper's query through every executor, render the views,
// and replay an interactive session.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/spatial_aggregation.h"
#include "data/binary_io.h"
#include "data/event_generator.h"
#include "data/geojson.h"
#include "data/region_generator.h"
#include "data/taxi_generator.h"
#include "urbane/dataset_manager.h"
#include "urbane/exploration_view.h"
#include "urbane/heatmap_view.h"
#include "urbane/map_view.h"
#include "urbane/session.h"

namespace urbane {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::TaxiGeneratorOptions taxi_options;
    taxi_options.num_trips = 50000;
    taxi_options.seed = 2018;
    taxi_ = new data::PointTable(data::GenerateTaxiTrips(taxi_options));
    regions_ = new data::RegionSet(data::GenerateNeighborhoods(3));
  }
  static void TearDownTestSuite() {
    delete taxi_;
    delete regions_;
    taxi_ = nullptr;
    regions_ = nullptr;
  }

  static data::PointTable* taxi_;
  static data::RegionSet* regions_;
};

data::PointTable* EndToEndTest::taxi_ = nullptr;
data::RegionSet* EndToEndTest::regions_ = nullptr;

TEST_F(EndToEndTest, PaperQueryFigure1) {
  // "number of pickups performed by NYC taxis in the month of January 2009
  //  aggregated over the neighborhoods of NYC"
  core::SpatialAggregation engine(*taxi_, *regions_);
  core::AggregationQuery query;
  query.aggregate = core::AggregateSpec::Count();
  query.filter.WithTime(1230768000, 1233446400);  // Jan 2009
  const auto exact =
      engine.Execute(query, core::ExecutionMethod::kAccurateRaster);
  ASSERT_TRUE(exact.ok());
  std::uint64_t total = 0;
  for (const auto count : exact->counts) {
    total += count;
  }
  // Neighborhoods tile the full synthetic city, so every trip lands in
  // exactly one of them.
  EXPECT_EQ(total, taxi_->size());

  // The same frame rendered as the paper's Figure 1.
  const std::string path = ::testing::TempDir() + "/figure1.ppm";
  const auto render = app::RenderChoroplethToFile(*regions_, *exact, path);
  ASSERT_TRUE(render.ok());
  std::remove(path.c_str());
}

TEST_F(EndToEndTest, AllExecutorsAgreeOnTaxiWorkload) {
  core::RasterJoinOptions options;
  options.resolution = 512;
  core::SpatialAggregation engine(*taxi_, *regions_, options);
  core::AggregationQuery query;
  query.aggregate = core::AggregateSpec::Avg("fare_amount");
  query.filter.WithRange("passenger_count", 1, 2);
  const auto scan = engine.Execute(query, core::ExecutionMethod::kScan);
  const auto index = engine.Execute(query, core::ExecutionMethod::kIndexJoin);
  const auto accurate =
      engine.Execute(query, core::ExecutionMethod::kAccurateRaster);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(accurate.ok());
  for (std::size_t r = 0; r < regions_->size(); ++r) {
    EXPECT_EQ(index->counts[r], scan->counts[r]);
    EXPECT_EQ(accurate->counts[r], scan->counts[r]);
    if (scan->counts[r] > 0) {
      EXPECT_NEAR(accurate->values[r], scan->values[r],
                  1e-6 * std::fabs(scan->values[r]) + 1e-9);
    }
  }
}

TEST_F(EndToEndTest, BinarySnapshotRoundTripPreservesQueries) {
  // Points persist as a UST1 store (CLI convert/open), regions as URG1.
  const std::string points_path = ::testing::TempDir() + "/e2e_points.ust";
  const std::string regions_path = ::testing::TempDir() + "/e2e_regions.urg";
  app::DatasetManager manager;
  ASSERT_TRUE(manager.AddPointDataset("taxi", data::PointTable(*taxi_)).ok());
  ASSERT_TRUE(manager.ConvertToStore("taxi", points_path).ok());
  ASSERT_TRUE(data::WriteRegionSetBinary(*regions_, regions_path).ok());
  ASSERT_TRUE(manager.AddStoreDataset("taxi_disk", points_path).ok());
  auto regions = data::ReadRegionSetBinary(regions_path);
  ASSERT_TRUE(regions.ok());
  ASSERT_TRUE(manager.AddRegionLayer("hoods", std::move(*regions)).ok());

  core::SpatialAggregation original(*taxi_, *regions_);
  auto reloaded = manager.Engine("taxi_disk", "hoods");
  ASSERT_TRUE(reloaded.ok());
  core::AggregationQuery query;
  const auto a = original.Execute(query, core::ExecutionMethod::kScan);
  const auto b = (*reloaded)->Execute(query, core::ExecutionMethod::kScan);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->counts, b->counts);
  std::remove(points_path.c_str());
  std::remove(regions_path.c_str());
}

TEST_F(EndToEndTest, GeoJsonExportReimportKeepsRegionCount) {
  const std::string geojson = data::WriteGeoJsonRegions(*regions_);
  const auto reloaded = data::ReadGeoJsonRegions(geojson);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->size(), regions_->size());
}

TEST_F(EndToEndTest, MultiDatasetExplorationView) {
  app::DatasetManager manager;
  data::UrbanEventOptions opt311;
  opt311.num_events = 20000;
  data::UrbanEventOptions crime_options;
  crime_options.kind = data::UrbanEventKind::kCrimeIncidents;
  crime_options.num_events = 15000;
  ASSERT_TRUE(manager.AddPointDataset("taxi", *taxi_).ok());
  ASSERT_TRUE(
      manager.AddPointDataset("311", data::GenerateUrbanEvents(opt311)).ok());
  ASSERT_TRUE(manager
                  .AddPointDataset("crime",
                                   data::GenerateUrbanEvents(crime_options))
                  .ok());
  ASSERT_TRUE(manager.AddRegionLayer("hoods", *regions_).ok());

  app::DataExplorationView view(manager, "hoods");
  app::ProfileMetric taxi_metric;
  taxi_metric.label = "pickups";
  taxi_metric.dataset = "taxi";
  taxi_metric.aggregate = core::AggregateSpec::Count();
  view.AddMetric(taxi_metric);
  app::ProfileMetric fare_metric = taxi_metric;
  fare_metric.label = "avg fare";
  fare_metric.aggregate = core::AggregateSpec::Avg("fare_amount");
  view.AddMetric(fare_metric);
  app::ProfileMetric complaint_metric;
  complaint_metric.label = "311 complaints";
  complaint_metric.dataset = "311";
  complaint_metric.aggregate = core::AggregateSpec::Count();
  view.AddMetric(complaint_metric);
  app::ProfileMetric crime_metric;
  crime_metric.label = "crimes";
  crime_metric.dataset = "crime";
  crime_metric.aggregate = core::AggregateSpec::Count();
  view.AddMetric(crime_metric);

  const auto profiles =
      view.ComputeProfiles(core::ExecutionMethod::kAccurateRaster);
  ASSERT_TRUE(profiles.ok()) << profiles.status();
  EXPECT_EQ(profiles->metric_count(), 4u);
  EXPECT_EQ(profiles->region_count(), regions_->size());
  const auto ranking = app::DataExplorationView::RankByMetric(*profiles, 0);
  const auto similar =
      app::DataExplorationView::MostSimilar(*profiles, ranking[0], 3);
  EXPECT_EQ(similar.size(), 3u);
}

TEST_F(EndToEndTest, HeatmapOfJanuaryMornings) {
  core::FilterSpec filter;
  filter.WithTime(1230768000, 1233446400);
  const auto image = app::RenderHeatmap(*taxi_, filter);
  ASSERT_TRUE(image.ok());
  EXPECT_GT(image->width(), 0);
}

TEST_F(EndToEndTest, InteractiveSessionStaysExact) {
  core::RasterJoinOptions options;
  options.resolution = 512;
  core::SpatialAggregation engine(*taxi_, *regions_, options);
  const auto [t0, t1] = taxi_->TimeRange();
  app::InteractionSession session(engine, "fare_amount", t0, t1);
  const auto trace = app::GenerateInteractionTrace(12, 42);
  const auto raster =
      session.Replay(trace, core::ExecutionMethod::kAccurateRaster);
  const auto scan = session.Replay(trace, core::ExecutionMethod::kScan);
  ASSERT_TRUE(raster.ok());
  ASSERT_TRUE(scan.ok());
  const auto summary = app::SummarizeFrames(*raster);
  EXPECT_EQ(summary.frames, 12u);
  for (std::size_t i = 0; i < raster->size(); ++i) {
    EXPECT_NEAR((*raster)[i].checksum, (*scan)[i].checksum,
                1e-6 * std::max(1.0, std::fabs((*scan)[i].checksum)));
  }
}

}  // namespace
}  // namespace urbane
