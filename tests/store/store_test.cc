// UST1 block store: round trip, streaming writer, zone-map fidelity, the
// mapped view and the no-mmap fallback copy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <vector>

#include "store/store_reader.h"
#include "store/store_writer.h"
#include "testing/test_worlds.h"

namespace urbane::store {
namespace {

using Row = std::tuple<float, float, std::int64_t, float>;

std::vector<Row> Rows(const data::PointTable& table) {
  std::vector<Row> rows;
  rows.reserve(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    rows.emplace_back(table.x(i), table.y(i), table.t(i),
                      table.attribute(i, 0));
  }
  return rows;
}

std::vector<Row> SortedRows(const data::PointTable& table) {
  std::vector<Row> rows = Rows(table);
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Cached (zone-map) extents must be bit-exact with the O(n) scan of an
// owning copy built row by row.
void ExpectExtentsMatchScan(const data::PointTable& table) {
  const data::PointTable scanned = testing::CopyRows(table);
  const auto bounds = table.Bounds();
  const auto scanned_bounds = scanned.Bounds();
  EXPECT_EQ(bounds.min_x, scanned_bounds.min_x);
  EXPECT_EQ(bounds.max_x, scanned_bounds.max_x);
  EXPECT_EQ(bounds.min_y, scanned_bounds.min_y);
  EXPECT_EQ(bounds.max_y, scanned_bounds.max_y);
  EXPECT_EQ(table.TimeRange(), scanned.TimeRange());
}

std::string TempStorePath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(StoreWriterTest, RoundTripPreservesRowMultiset) {
  const data::PointTable table = testing::MakeUniformPoints(5000, 41);
  const std::string path = TempStorePath("roundtrip.ust");
  StoreWriterOptions options;
  options.block_rows = 512;
  auto stats = WritePointStore(table, path, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_written, table.size());
  EXPECT_EQ(stats->blocks_written, (table.size() + 511) / 512);

  auto reader = StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->row_count(), table.size());
  EXPECT_EQ(reader->schema(), table.schema());
  auto copy = reader->Materialize();
  ASSERT_TRUE(copy.ok());
  // The writer Morton-permutes rows, so compare as multisets.
  EXPECT_EQ(SortedRows(*copy), SortedRows(table));
  std::remove(path.c_str());
}

TEST(StoreWriterTest, ZoneMapsMatchRecomputedBlockExtents) {
  const data::PointTable table = testing::MakeUniformPoints(3000, 42);
  const std::string path = TempStorePath("zonemaps.ust");
  StoreWriterOptions options;
  options.block_rows = 256;
  ASSERT_TRUE(WritePointStore(table, path, options).ok());
  auto reader = StoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto stored = reader->Materialize();
  ASSERT_TRUE(stored.ok());
  for (const core::BlockZoneMap& zm : reader->zone_maps().blocks()) {
    float min_x = stored->x(zm.row_begin), max_x = min_x;
    float min_y = stored->y(zm.row_begin), max_y = min_y;
    std::int64_t min_t = stored->t(zm.row_begin), max_t = min_t;
    float min_v = stored->attribute(zm.row_begin, 0), max_v = min_v;
    for (std::uint64_t i = zm.row_begin; i < zm.row_end(); ++i) {
      min_x = std::min(min_x, stored->x(i));
      max_x = std::max(max_x, stored->x(i));
      min_y = std::min(min_y, stored->y(i));
      max_y = std::max(max_y, stored->y(i));
      min_t = std::min(min_t, stored->t(i));
      max_t = std::max(max_t, stored->t(i));
      min_v = std::min(min_v, stored->attribute(i, 0));
      max_v = std::max(max_v, stored->attribute(i, 0));
    }
    EXPECT_EQ(zm.min_x, min_x);
    EXPECT_EQ(zm.max_x, max_x);
    EXPECT_EQ(zm.min_y, min_y);
    EXPECT_EQ(zm.max_y, max_y);
    EXPECT_EQ(zm.min_t, min_t);
    EXPECT_EQ(zm.max_t, max_t);
    EXPECT_EQ(zm.attr_min[0], min_v);
    EXPECT_EQ(zm.attr_max[0], max_v);
  }
  std::remove(path.c_str());
}

TEST(StoreWriterTest, StreamingMultiBatchAppendMatchesOneShot) {
  const data::PointTable table = testing::MakeUniformPoints(4000, 43);
  const std::string path = TempStorePath("streaming.ust");
  StoreWriterOptions options;
  options.block_rows = 300;
  options.sort_batch_rows = 700;  // forces several spill flushes
  auto writer = StoreWriter::Create(path, table.schema(), options);
  ASSERT_TRUE(writer.ok());
  // Feed the table in uneven chunks.
  std::size_t at = 0;
  for (const std::size_t chunk : {100, 900, 1, 1500, 1499}) {
    data::PointTable batch(table.schema());
    for (std::size_t i = 0; i < chunk; ++i, ++at) {
      ASSERT_TRUE(batch
                      .AppendRow(table.x(at), table.y(at), table.t(at),
                                 {table.attribute(at, 0)})
                      .ok());
    }
    ASSERT_TRUE(writer->Append(batch).ok());
  }
  ASSERT_EQ(at, table.size());
  auto stats = writer->Finish();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_written, table.size());

  auto reader = StoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto copy = reader->Materialize();
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(SortedRows(*copy), SortedRows(table));
  std::remove(path.c_str());
}

TEST(StoreWriterTest, AbandonedWriterLeavesNoFiles) {
  const std::string path = TempStorePath("abandoned.ust");
  {
    auto writer = StoreWriter::Create(
        path, data::Schema(std::vector<std::string>{"v"}));
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(testing::MakeUniformPoints(100, 44)).ok());
    // No Finish: destructor must clean up spills and never publish `path`.
  }
  EXPECT_FALSE(StoreReader::Open(path).ok());
  std::FILE* spill = std::fopen((path + ".col0.tmp").c_str(), "rb");
  EXPECT_EQ(spill, nullptr);
  if (spill != nullptr) std::fclose(spill);
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
}

TEST(StoreWriterTest, MisuseIsRejected) {
  const std::string path = TempStorePath("misuse.ust");
  auto writer = StoreWriter::Create(
      path, data::Schema(std::vector<std::string>{"v"}));
  ASSERT_TRUE(writer.ok());
  // Schema mismatch.
  data::PointTable other{data::Schema(std::vector<std::string>{"w"})};
  EXPECT_FALSE(writer->Append(other).ok());
  ASSERT_TRUE(writer->Finish().ok());
  EXPECT_FALSE(writer->Append(data::PointTable(
                                  data::Schema(std::vector<std::string>{"v"})))
                   .ok());
  EXPECT_FALSE(writer->Finish().ok());
  std::remove(path.c_str());
}

TEST(StoreReaderTest, MappedTableIsZeroCopyWithCachedExtents) {
  const data::PointTable table = testing::MakeUniformPoints(2000, 45);
  const std::string path = TempStorePath("mapped.ust");
  StoreWriterOptions options;
  options.block_rows = 128;
  ASSERT_TRUE(WritePointStore(table, path, options).ok());
  auto reader = StoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader->mapped());
  auto view = reader->MappedTable();
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->is_view());
  EXPECT_EQ(view->size(), table.size());
  // The mapped rows are the written ones (Morton-permuted).
  EXPECT_EQ(SortedRows(*view), SortedRows(table));
  ExpectExtentsMatchScan(*view);
  std::remove(path.c_str());
}

TEST(StoreReaderTest, PreadModeServesBlocksWithoutMapping) {
  const data::PointTable table = testing::MakeUniformPoints(1500, 46);
  const std::string path = TempStorePath("pread.ust");
  StoreWriterOptions options;
  options.block_rows = 200;
  ASSERT_TRUE(WritePointStore(table, path, options).ok());
  auto mapped = StoreReader::Open(path);
  ASSERT_TRUE(mapped.ok());
  auto view = mapped->MappedTable();
  ASSERT_TRUE(view.ok());

  StoreReaderOptions read_options;
  read_options.use_mmap = false;
  auto reader = StoreReader::Open(path, read_options);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader->mapped());
  EXPECT_FALSE(reader->MappedTable().ok());
  auto copy = reader->Materialize();
  ASSERT_TRUE(copy.ok());
  EXPECT_FALSE(copy->is_view());
  // Row for row in the store's order, not merely the same multiset.
  EXPECT_EQ(Rows(*copy), Rows(*view));
  // The copy carries the zone-map extents too, equal to a scan's.
  ExpectExtentsMatchScan(*copy);
  std::remove(path.c_str());
}

TEST(StoreReaderTest, EmptyStoreRoundTrips) {
  const std::string path = TempStorePath("empty.ust");
  data::PointTable empty{data::Schema(std::vector<std::string>{"v"})};
  ASSERT_TRUE(WritePointStore(empty, path).ok());
  auto reader = StoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->row_count(), 0u);
  EXPECT_EQ(reader->block_count(), 0u);
  auto view = reader->MappedTable();
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->size(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace urbane::store
