#include "urbane/dataset_manager.h"

#include <gtest/gtest.h>

#include <cstring>

#include "obs/profile.h"
#include "store/store_reader.h"
#include "testing/test_worlds.h"

namespace urbane::app {
namespace {

TEST(DatasetManagerTest, RegisterAndLookup) {
  DatasetManager manager;
  ASSERT_TRUE(
      manager.AddPointDataset("taxi", testing::MakeUniformPoints(100, 1))
          .ok());
  ASSERT_TRUE(
      manager.AddRegionLayer("hoods", testing::MakeRandomRegions(3, 2)).ok());
  EXPECT_EQ(manager.PointDatasetNames(),
            std::vector<std::string>{"taxi"});
  EXPECT_EQ(manager.RegionLayerNames(), std::vector<std::string>{"hoods"});
  ASSERT_TRUE(manager.PointDataset("taxi").ok());
  EXPECT_EQ(manager.PointDataset("taxi").value()->size(), 100u);
  EXPECT_FALSE(manager.PointDataset("nope").ok());
  EXPECT_FALSE(manager.RegionLayer("nope").ok());
}

TEST(DatasetManagerTest, RejectsDuplicatesAndEmptyNames) {
  DatasetManager manager;
  ASSERT_TRUE(
      manager.AddPointDataset("a", testing::MakeUniformPoints(10, 1)).ok());
  EXPECT_FALSE(
      manager.AddPointDataset("a", testing::MakeUniformPoints(10, 2)).ok());
  EXPECT_FALSE(
      manager.AddPointDataset("", testing::MakeUniformPoints(10, 3)).ok());
  ASSERT_TRUE(
      manager.AddRegionLayer("r", testing::MakeRandomRegions(2, 4)).ok());
  EXPECT_FALSE(
      manager.AddRegionLayer("r", testing::MakeRandomRegions(2, 5)).ok());
}

TEST(DatasetManagerTest, EngineIsCachedPerPair) {
  DatasetManager manager;
  ASSERT_TRUE(
      manager.AddPointDataset("taxi", testing::MakeUniformPoints(500, 6))
          .ok());
  ASSERT_TRUE(
      manager.AddRegionLayer("hoods", testing::MakeRandomRegions(3, 7)).ok());
  ASSERT_TRUE(
      manager.AddRegionLayer("tracts", testing::MakeRandomRegions(5, 8)).ok());
  const auto e1 = manager.Engine("taxi", "hoods");
  const auto e2 = manager.Engine("taxi", "hoods");
  const auto e3 = manager.Engine("taxi", "tracts");
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  ASSERT_TRUE(e3.ok());
  EXPECT_EQ(*e1, *e2);
  EXPECT_NE(*e1, *e3);
  EXPECT_FALSE(manager.Engine("nope", "hoods").ok());
}

TEST(DatasetManagerTest, EngineRunsQueries) {
  DatasetManager manager;
  ASSERT_TRUE(
      manager.AddPointDataset("taxi", testing::MakeUniformPoints(2000, 9))
          .ok());
  ASSERT_TRUE(manager
                  .AddRegionLayer("hoods",
                                  testing::MakeTessellationRegions(3, 10))
                  .ok());
  auto engine = manager.Engine("taxi", "hoods");
  ASSERT_TRUE(engine.ok());
  core::AggregationQuery query;
  const auto result =
      (*engine)->Execute(query, core::ExecutionMethod::kAccurateRaster);
  ASSERT_TRUE(result.ok());
  std::uint64_t total = 0;
  for (const auto c : result->counts) total += c;
  EXPECT_EQ(total, 2000u);
}

TEST(DatasetManagerTest, WorkspaceSaveLoadRoundTrip) {
  DatasetManager manager;
  ASSERT_TRUE(
      manager.AddPointDataset("taxi", testing::MakeUniformPoints(500, 20))
          .ok());
  ASSERT_TRUE(manager
                  .AddRegionLayer("hoods",
                                  testing::MakeTessellationRegions(2, 21))
                  .ok());
  const std::string dir = ::testing::TempDir() + "/dm_roundtrip";
  ASSERT_TRUE(manager.SaveWorkspace(dir).ok());

  DatasetManager reloaded;
  ASSERT_TRUE(reloaded.LoadWorkspace(dir + "/urbane.workspace.json").ok());
  ASSERT_TRUE(reloaded.PointDataset("taxi").ok());
  EXPECT_EQ(reloaded.PointDataset("taxi").value()->size(), 500u);
  // Points come back as a memory-mapped UST1 store.
  EXPECT_TRUE(reloaded.PointDataset("taxi").value()->is_view());
  ASSERT_TRUE(reloaded.RegionLayer("hoods").ok());
  EXPECT_EQ(reloaded.RegionLayer("hoods").value()->size(), 4u);
  // Queries work on the reloaded workspace.
  const auto result =
      reloaded.ExecuteSql("SELECT COUNT(*) FROM taxi, hoods",
                          core::ExecutionMethod::kScan);
  ASSERT_TRUE(result.ok());
  std::uint64_t total = 0;
  for (const auto c : result->counts) total += c;
  EXPECT_EQ(total, 500u);
}

std::uint64_t Bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Re-saving a loaded workspace writes over the very .ust files it has
// mapped. The store lands by temp file + rename, so the live mapping keeps
// serving the old inode; the reloaded workspace is mapped, prunes, and
// answers like an in-memory engine over the store's rows.
TEST(DatasetManagerTest, SaveWorkspaceOverItsOwnMappedFiles) {
  const std::string dir = ::testing::TempDir() + "/dm_resave";
  const std::string manifest = dir + "/urbane.workspace.json";
  {
    DatasetManager original;
    // 200k rows at the default 64Ki rows per block: four blocks.
    ASSERT_TRUE(original
                    .AddPointDataset("taxi",
                                     testing::MakeUniformPoints(200000, 25))
                    .ok());
    ASSERT_TRUE(original
                    .AddRegionLayer("hoods",
                                    testing::MakeTessellationRegions(3, 26))
                    .ok());
    ASSERT_TRUE(original.SaveWorkspace(dir).ok());
  }
  core::AggregationQuery window;
  window.filter.spatial_window = geometry::BoundingBox(0.0, 0.0, 30.0, 30.0);

  DatasetManager loaded;
  ASSERT_TRUE(loaded.LoadWorkspace(manifest).ok());
  auto loaded_engine = loaded.Engine("taxi", "hoods");
  ASSERT_TRUE(loaded_engine.ok());
  const auto before =
      (*loaded_engine)->Execute(window, core::ExecutionMethod::kScan);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(loaded.SaveWorkspace(dir).ok());
  const auto after =
      (*loaded_engine)->Execute(window, core::ExecutionMethod::kScan);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->counts, before->counts);

  DatasetManager reloaded;
  ASSERT_TRUE(reloaded.LoadWorkspace(manifest).ok());
  auto table = reloaded.PointDataset("taxi");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)->is_view());
  EXPECT_EQ((*table)->size(), 200000u);
  auto engine = reloaded.Engine("taxi", "hoods");
  ASSERT_TRUE(engine.ok());
  obs::QueryProfile profile;
  core::AggregationQuery profiled = window;
  profiled.profile = &profile;
  ASSERT_TRUE((*engine)->Execute(profiled, core::ExecutionMethod::kScan).ok());
  EXPECT_GT(profile.blocks_pruned, 0u);

  auto reader = store::StoreReader::Open(dir + "/taxi.ust");
  ASSERT_TRUE(reader.ok());
  auto rows = reader->Materialize();
  ASSERT_TRUE(rows.ok());
  auto hoods = reloaded.RegionLayer("hoods");
  ASSERT_TRUE(hoods.ok());
  core::SpatialAggregation memory(*rows, **hoods);
  for (const core::ExecutionMethod method :
       {core::ExecutionMethod::kScan, core::ExecutionMethod::kIndexJoin,
        core::ExecutionMethod::kBoundedRaster,
        core::ExecutionMethod::kAccurateRaster}) {
    for (const core::AggregateSpec& aggregate :
         {core::AggregateSpec::Count(), core::AggregateSpec::Sum("v"),
          core::AggregateSpec::Avg("v")}) {
      for (const core::FilterSpec& filter :
           {core::FilterSpec(), window.filter}) {
        core::AggregationQuery query;
        query.aggregate = aggregate;
        query.filter = filter;
        const auto mapped = (*engine)->Execute(query, method);
        const auto owned = memory.Execute(query, method);
        ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
        ASSERT_TRUE(owned.ok()) << owned.status().ToString();
        ASSERT_EQ(mapped->values.size(), owned->values.size());
        for (std::size_t r = 0; r < owned->values.size(); ++r) {
          EXPECT_EQ(Bits(mapped->values[r]), Bits(owned->values[r]))
              << core::ExecutionMethodToString(method) << " region " << r;
          EXPECT_EQ(mapped->counts[r], owned->counts[r]);
        }
      }
    }
  }
}

TEST(DatasetManagerTest, SaveWorkspaceCreatesDirectory) {
  DatasetManager manager;
  ASSERT_TRUE(
      manager.AddPointDataset("t", testing::MakeUniformPoints(50, 24)).ok());
  const std::string dir =
      ::testing::TempDir() + "/nested/workspace/dir";
  ASSERT_TRUE(manager.SaveWorkspace(dir).ok());
  DatasetManager reloaded;
  EXPECT_TRUE(reloaded.LoadWorkspace(dir + "/urbane.workspace.json").ok());
}

TEST(DatasetManagerTest, LoadWorkspaceMissingManifestFails) {
  DatasetManager manager;
  EXPECT_FALSE(manager.LoadWorkspace("/no/such/manifest.json").ok());
}

TEST(DatasetManagerTest, ExecuteSqlParsesAndRuns) {
  DatasetManager manager;
  ASSERT_TRUE(
      manager.AddPointDataset("taxi", testing::MakeUniformPoints(1000, 22))
          .ok());
  ASSERT_TRUE(manager
                  .AddRegionLayer("hoods",
                                  testing::MakeTessellationRegions(2, 23))
                  .ok());
  const auto result = manager.ExecuteSql(
      "SELECT AVG(v) FROM taxi, hoods WHERE v IN [0, 10]",
      core::ExecutionMethod::kAccurateRaster);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 4u);
  EXPECT_FALSE(
      manager.ExecuteSql("garbage", core::ExecutionMethod::kScan).ok());
}

TEST(DatasetManagerTest, ValidatesTableOnAdd) {
  DatasetManager manager;
  data::PointTable ragged(data::Schema({"v"}));
  ragged.AppendXyt(0, 0, 0);  // attribute column left short
  EXPECT_FALSE(manager.AddPointDataset("bad", std::move(ragged)).ok());
}

}  // namespace
}  // namespace urbane::app
