#include "data/catalog.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace urbane::data {
namespace {

CatalogEntry PointsEntry(const std::string& name, const std::string& path) {
  CatalogEntry entry;
  entry.kind = CatalogEntry::Kind::kPoints;
  entry.name = name;
  entry.path = path;
  return entry;
}

CatalogEntry RegionsEntry(const std::string& name, const std::string& path) {
  CatalogEntry entry;
  entry.kind = CatalogEntry::Kind::kRegions;
  entry.name = name;
  entry.path = path;
  return entry;
}

TEST(FormatFromPathTest, RecognizesExtensions) {
  EXPECT_EQ(FormatFromPath("a/b/taxi.ust"), "ust");
  EXPECT_EQ(FormatFromPath("points.csv"), "csv");
  EXPECT_EQ(FormatFromPath("hoods.urg"), "urg");
  EXPECT_EQ(FormatFromPath("hoods.geojson"), "geojson");
  EXPECT_EQ(FormatFromPath("mystery.bin"), "");
}

TEST(CatalogTest, AddInfersFormat) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Add(PointsEntry("taxi", "taxi.ust")).ok());
  ASSERT_EQ(catalog.entries().size(), 1u);
  EXPECT_EQ(catalog.entries()[0].format, "ust");
}

TEST(CatalogTest, RejectsBadEntries) {
  Catalog catalog;
  EXPECT_FALSE(catalog.Add(PointsEntry("", "x.ust")).ok());
  EXPECT_FALSE(catalog.Add(PointsEntry("a", "")).ok());
  EXPECT_FALSE(catalog.Add(PointsEntry("a", "x.unknown")).ok());
  // The retired point snapshot format is unknown.
  CatalogEntry retired = PointsEntry("a", "x.bin");
  retired.format = "upt";
  EXPECT_FALSE(catalog.Add(retired).ok());
  // Kind/format mismatch.
  EXPECT_FALSE(catalog.Add(PointsEntry("a", "x.geojson")).ok());
  EXPECT_FALSE(catalog.Add(RegionsEntry("a", "x.csv")).ok());
}

TEST(CatalogTest, RejectsDuplicatesPerKind) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Add(PointsEntry("a", "a.ust")).ok());
  EXPECT_FALSE(catalog.Add(PointsEntry("a", "b.ust")).ok());
  // Same name under a different kind is fine.
  EXPECT_TRUE(catalog.Add(RegionsEntry("a", "a.urg")).ok());
}

TEST(CatalogTest, FindByKindAndName) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Add(PointsEntry("taxi", "taxi.ust")).ok());
  ASSERT_TRUE(catalog.Add(RegionsEntry("hoods", "hoods.urg")).ok());
  EXPECT_NE(catalog.Find(CatalogEntry::Kind::kPoints, "taxi"), nullptr);
  EXPECT_EQ(catalog.Find(CatalogEntry::Kind::kRegions, "taxi"), nullptr);
  EXPECT_EQ(catalog.Find(CatalogEntry::Kind::kPoints, "nope"), nullptr);
}

TEST(CatalogTest, JsonRoundTrip) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Add(PointsEntry("taxi", "data/taxi.ust")).ok());
  ASSERT_TRUE(catalog.Add(PointsEntry("crime", "data/crime.csv")).ok());
  ASSERT_TRUE(catalog.Add(RegionsEntry("hoods", "hoods.geojson")).ok());
  const auto parsed = Catalog::FromJson(catalog.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->entries().size(), 3u);
  EXPECT_EQ(parsed->entries()[1].name, "crime");
  EXPECT_EQ(parsed->entries()[1].format, "csv");
  EXPECT_EQ(parsed->entries()[2].kind, CatalogEntry::Kind::kRegions);
}

TEST(CatalogTest, FromJsonRejectsGarbage) {
  EXPECT_FALSE(Catalog::FromJson("not json").ok());
  EXPECT_FALSE(Catalog::FromJson("{}").ok());
  EXPECT_FALSE(Catalog::FromJson(R"({"version": 2, "entries": []})").ok());
  EXPECT_FALSE(Catalog::FromJson(
                   R"({"version": 1, "entries": [{"name": "x"}]})")
                   .ok());
}

TEST(CatalogTest, FileRoundTrip) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Add(PointsEntry("taxi", "taxi.ust")).ok());
  const std::string path = ::testing::TempDir() + "/workspace.json";
  ASSERT_TRUE(catalog.WriteFile(path).ok());
  const auto loaded = Catalog::ReadFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->entries().size(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace urbane::data
