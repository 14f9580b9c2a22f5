// LiveTable lifecycle tests: append visibility, seal/flush/compact
// transitions, backpressure, and — the part that matters most — crash
// recovery: any close or torn WAL tail must reopen to exactly the
// pre-crash visible state (ISSUE 10's replay acceptance criterion).
#include "ingest/live_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "data/point_table.h"
#include "data/schema.h"
#include "testing/test_worlds.h"
#include "util/csv.h"
#include "util/status.h"

namespace urbane::ingest {
namespace {

data::Schema VSchema() {
  return data::Schema(std::vector<std::string>{"v"});
}

// Fresh per-test directory under TempDir; wiped first so state left by a
// previous run of the binary cannot leak into recovery assertions.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/live_table_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::unique_ptr<LiveTable> MustOpen(const std::string& dir,
                                    const IngestOptions& options,
                                    const data::PointTable* base = nullptr) {
  StatusOr<std::unique_ptr<LiveTable>> table =
      LiveTable::Open(dir, VSchema(), base, nullptr, options);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? std::move(*table) : nullptr;
}

using Row = std::tuple<float, float, std::int64_t, float>;

void CollectRows(const data::PointTable& table, std::vector<Row>* out) {
  for (std::size_t i = 0; i < table.size(); ++i) {
    out->emplace_back(table.x(i), table.y(i), table.t(i),
                      table.attribute(i, 0));
  }
}

// The visible row multiset of a snapshot (base + runs + hot), sorted so
// Morton re-orders inside flushed runs do not matter.
std::vector<Row> VisibleRows(const LiveSnapshot& snapshot) {
  std::vector<Row> rows;
  if (snapshot.base != nullptr) CollectRows(*snapshot.base, &rows);
  for (const auto& run : snapshot.runs) CollectRows(run->table, &rows);
  CollectRows(snapshot.hot, &rows);
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<Row> SortedRows(const data::PointTable& table) {
  std::vector<Row> rows;
  CollectRows(table, &rows);
  std::sort(rows.begin(), rows.end());
  return rows;
}

void AppendInto(const data::PointTable& batch, data::PointTable* all) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(all->AppendRow(batch.x(i), batch.y(i), batch.t(i),
                               {batch.attribute(i, 0)})
                    .ok());
  }
}

TEST(LiveTableTest, AppendAdvancesWatermarkAndIsVisible) {
  auto table = MustOpen(FreshDir("append"), IngestOptions());
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->watermark(), 0u);

  const data::PointTable batch = testing::MakeDyadicPoints(50, 1);
  StatusOr<std::uint64_t> watermark = table->Append(batch);
  ASSERT_TRUE(watermark.ok()) << watermark.status().ToString();
  EXPECT_EQ(*watermark, 50u);

  const LiveSnapshot snapshot = table->Snapshot();
  EXPECT_EQ(snapshot.watermark, 50u);
  EXPECT_EQ(snapshot.hot_rows, 50u);
  EXPECT_TRUE(snapshot.runs.empty());
  EXPECT_EQ(VisibleRows(snapshot), SortedRows(batch));

  const IngestStats stats = table->stats();
  EXPECT_EQ(stats.appends, 1u);
  EXPECT_EQ(stats.rows_appended, 50u);
  EXPECT_GT(stats.wal_bytes, 16u);  // header + one record
}

TEST(LiveTableTest, ArityMismatchAndOversizeBatchesAreRejected) {
  IngestOptions options;
  options.memtable_rows = 16;
  auto table = MustOpen(FreshDir("reject"), options);
  ASSERT_NE(table, nullptr);

  data::PointTable two_attrs(data::Schema(std::vector<std::string>{"a", "b"}));
  ASSERT_TRUE(two_attrs.AppendRow(1.0f, 2.0f, 3, {4.0f, 5.0f}).ok());
  EXPECT_EQ(table->Append(two_attrs).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(table->Append(testing::MakeDyadicPoints(17, 2)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table->watermark(), 0u);
}

TEST(LiveTableTest, SealsAtCapacityIntoMemoryRun) {
  IngestOptions options;
  options.memtable_rows = 8;
  auto table = MustOpen(FreshDir("seal"), options);
  ASSERT_NE(table, nullptr);

  ASSERT_TRUE(table->Append(testing::MakeDyadicPoints(6, 1)).ok());
  ASSERT_TRUE(table->Append(testing::MakeDyadicPoints(6, 2)).ok());

  const LiveSnapshot snapshot = table->Snapshot();
  EXPECT_EQ(snapshot.watermark, 12u);
  ASSERT_EQ(snapshot.runs.size(), 1u);
  EXPECT_FALSE(snapshot.runs[0]->store_backed());
  EXPECT_EQ(snapshot.runs[0]->rows, 6u);
  EXPECT_EQ(snapshot.hot_rows, 6u);
  EXPECT_EQ(table->stats().sealed_runs, 1u);
  EXPECT_EQ(table->stats().store_runs, 0u);
}

TEST(LiveTableTest, BackpressureWhenSaturatedThenFlushUnblocks) {
  IngestOptions options;
  options.memtable_rows = 4;
  options.max_sealed_runs = 1;
  auto table = MustOpen(FreshDir("backpressure"), options);
  ASSERT_NE(table, nullptr);

  ASSERT_TRUE(table->Append(testing::MakeDyadicPoints(4, 1)).ok());
  ASSERT_TRUE(table->Append(testing::MakeDyadicPoints(4, 2)).ok());  // seals
  StatusOr<std::uint64_t> rejected =
      table->Append(testing::MakeDyadicPoints(4, 3));
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(table->stats().rejected, 1u);
  EXPECT_EQ(table->watermark(), 8u);

  ASSERT_TRUE(table->Flush().ok());
  StatusOr<std::uint64_t> after = table->Append(testing::MakeDyadicPoints(4, 3));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, 12u);
}

TEST(LiveTableTest, FlushProducesStoreRunsSameRows) {
  IngestOptions options;
  options.run_block_rows = 32;  // several blocks per run
  auto table = MustOpen(FreshDir("flush"), options);
  ASSERT_NE(table, nullptr);

  data::PointTable all(VSchema());
  const data::PointTable b1 = testing::MakeDyadicPoints(100, 1);
  const data::PointTable b2 = testing::MakeDyadicPoints(60, 2);
  AppendInto(b1, &all);
  AppendInto(b2, &all);
  ASSERT_TRUE(table->Append(b1).ok());
  ASSERT_TRUE(table->Append(b2).ok());
  ASSERT_TRUE(table->Flush().ok());

  const LiveSnapshot snapshot = table->Snapshot();
  EXPECT_EQ(snapshot.watermark, 160u);
  EXPECT_EQ(snapshot.hot_rows, 0u);
  ASSERT_EQ(snapshot.runs.size(), 1u);
  EXPECT_TRUE(snapshot.runs[0]->store_backed());
  EXPECT_NE(snapshot.runs[0]->zone_maps(), nullptr);
  EXPECT_EQ(VisibleRows(snapshot), SortedRows(all));  // Morton re-order only

  EXPECT_EQ(table->stats().store_runs, 1u);
  EXPECT_EQ(table->stats().flushes, 1u);
  EXPECT_TRUE(std::filesystem::exists(table->directory() + "/MANIFEST.json"));
}

TEST(LiveTableTest, ReopenReplaysWalToPreCrashState) {
  const std::string dir = FreshDir("recover_wal");
  data::PointTable all(VSchema());
  {
    IngestOptions options;
    options.memtable_rows = 64;
    auto table = MustOpen(dir, options);
    ASSERT_NE(table, nullptr);
    for (int b = 0; b < 3; ++b) {
      const data::PointTable batch = testing::MakeDyadicPoints(40, 10 + b);
      AppendInto(batch, &all);
      ASSERT_TRUE(table->Append(batch).ok());  // 40+40 seals, 40 hot
    }
    EXPECT_EQ(table->watermark(), 120u);
    // Destructor closes the WAL without flushing runs — recovery must
    // reconstruct sealed + hot rows purely from the segments.
  }
  auto reopened = MustOpen(dir, IngestOptions());
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->watermark(), 120u);
  EXPECT_EQ(reopened->stats().replayed_rows, 120u);
  EXPECT_EQ(VisibleRows(reopened->Snapshot()), SortedRows(all));
}

TEST(LiveTableTest, ReopenAfterFlushKeepsRunsAndReplaysTail) {
  const std::string dir = FreshDir("recover_mixed");
  data::PointTable all(VSchema());
  {
    auto table = MustOpen(dir, IngestOptions());
    ASSERT_NE(table, nullptr);
    const data::PointTable flushed = testing::MakeDyadicPoints(80, 1);
    AppendInto(flushed, &all);
    ASSERT_TRUE(table->Append(flushed).ok());
    ASSERT_TRUE(table->Flush().ok());
    const data::PointTable tail = testing::MakeDyadicPoints(30, 2);
    AppendInto(tail, &all);
    ASSERT_TRUE(table->Append(tail).ok());
  }
  auto reopened = MustOpen(dir, IngestOptions());
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->watermark(), 110u);
  EXPECT_EQ(reopened->stats().store_runs, 1u);
  EXPECT_EQ(reopened->stats().replayed_rows, 30u);
  EXPECT_EQ(VisibleRows(reopened->Snapshot()), SortedRows(all));
}

TEST(LiveTableTest, TornWalTailRecoversCommittedPrefix) {
  const std::string dir = FreshDir("torn_tail");
  data::PointTable committed(VSchema());
  {
    auto table = MustOpen(dir, IngestOptions());
    ASSERT_NE(table, nullptr);
    const data::PointTable b1 = testing::MakeDyadicPoints(25, 1);
    AppendInto(b1, &committed);
    ASSERT_TRUE(table->Append(b1).ok());
    ASSERT_TRUE(table->Append(testing::MakeDyadicPoints(25, 2)).ok());
  }
  // Simulate a crash that tore the second record: chop bytes off the
  // segment's tail (record 2 becomes incomplete, record 1 stays intact).
  const std::string wal = dir + "/wal-000001.log";
  ASSERT_TRUE(std::filesystem::exists(wal));
  StatusOr<std::string> bytes = ReadFileToString(wal);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(
      WriteStringToFile(bytes->substr(0, bytes->size() - 9), wal).ok());

  auto reopened = MustOpen(dir, IngestOptions());
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->watermark(), 25u);
  EXPECT_EQ(reopened->stats().replayed_rows, 25u);
  EXPECT_EQ(VisibleRows(reopened->Snapshot()), SortedRows(committed));
}

TEST(LiveTableTest, OrphanRunFilesAreRemovedOnOpen) {
  const std::string dir = FreshDir("orphan");
  data::PointTable all(VSchema());
  {
    auto table = MustOpen(dir, IngestOptions());
    ASSERT_NE(table, nullptr);
    const data::PointTable batch = testing::MakeDyadicPoints(40, 1);
    AppendInto(batch, &all);
    ASSERT_TRUE(table->Append(batch).ok());
    ASSERT_TRUE(table->Flush().ok());
  }
  // A run file the manifest does not name: a flush that crashed between
  // writing the file and committing the manifest. Its rows are still in
  // the WAL, so recovery must delete it rather than double-count.
  const std::string orphan = dir + "/run-000099.ust1";
  ASSERT_TRUE(
      std::filesystem::copy_file(dir + "/run-000001.ust1", orphan));
  auto reopened = MustOpen(dir, IngestOptions());
  ASSERT_NE(reopened, nullptr);
  EXPECT_FALSE(std::filesystem::exists(orphan));
  EXPECT_EQ(reopened->watermark(), 40u);
  EXPECT_EQ(VisibleRows(reopened->Snapshot()), SortedRows(all));
}

TEST(LiveTableTest, CompactMergesStoreRunsAndSurvivesReopen) {
  const std::string dir = FreshDir("compact");
  IngestOptions options;
  options.run_block_rows = 32;
  auto table = MustOpen(dir, options);
  ASSERT_NE(table, nullptr);

  data::PointTable all(VSchema());
  for (int b = 0; b < 2; ++b) {
    const data::PointTable batch = testing::MakeDyadicPoints(70, 20 + b);
    AppendInto(batch, &all);
    ASSERT_TRUE(table->Append(batch).ok());
    ASSERT_TRUE(table->Flush().ok());
  }
  EXPECT_EQ(table->stats().store_runs, 2u);

  ASSERT_TRUE(table->Compact().ok());
  EXPECT_EQ(table->stats().store_runs, 1u);
  EXPECT_EQ(table->stats().compactions, 1u);
  EXPECT_EQ(table->watermark(), 140u);
  EXPECT_EQ(VisibleRows(table->Snapshot()), SortedRows(all));

  table.reset();
  auto reopened = MustOpen(dir, IngestOptions());
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->stats().store_runs, 1u);
  EXPECT_EQ(reopened->watermark(), 140u);
  EXPECT_EQ(VisibleRows(reopened->Snapshot()), SortedRows(all));
}

TEST(LiveTableTest, SnapshotIsImmutableAcrossLaterAppends) {
  auto table = MustOpen(FreshDir("snapshot"), IngestOptions());
  ASSERT_NE(table, nullptr);
  const data::PointTable b1 = testing::MakeDyadicPoints(30, 1);
  ASSERT_TRUE(table->Append(b1).ok());

  const LiveSnapshot before = table->Snapshot();
  ASSERT_TRUE(table->Append(testing::MakeDyadicPoints(30, 2)).ok());
  ASSERT_TRUE(table->Flush().ok());

  EXPECT_EQ(before.watermark, 30u);
  EXPECT_EQ(before.hot.size(), 30u);
  EXPECT_EQ(VisibleRows(before), SortedRows(b1));
  EXPECT_EQ(table->Snapshot().watermark, 60u);
}

TEST(LiveTableTest, BaseTableRowsCountTowardTheWatermark) {
  const data::PointTable base = testing::MakeDyadicPoints(20, 7);
  auto table = MustOpen(FreshDir("base"), IngestOptions(), &base);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->watermark(), 20u);
  ASSERT_TRUE(table->Append(testing::MakeDyadicPoints(5, 8)).ok());
  EXPECT_EQ(table->watermark(), 25u);
  const LiveSnapshot snapshot = table->Snapshot();
  ASSERT_NE(snapshot.base, nullptr);
  EXPECT_EQ(snapshot.base->size(), 20u);
}

TEST(LiveTableTest, AppendLogOverflowIsReported) {
  IngestOptions options;
  options.append_log_entries = 2;
  auto table = MustOpen(FreshDir("append_log"), options);
  ASSERT_NE(table, nullptr);
  for (int b = 0; b < 4; ++b) {
    ASSERT_TRUE(table->Append(testing::MakeDyadicPoints(3, b + 1)).ok());
  }
  bool overflowed = false;
  std::vector<AppendLogEntry> entries = table->EntriesSince(0, &overflowed);
  EXPECT_TRUE(overflowed);
  EXPECT_EQ(entries.size(), 2u);

  entries = table->EntriesSince(2, &overflowed);
  EXPECT_FALSE(overflowed);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].seq, 3u);
  EXPECT_EQ(entries[1].seq, 4u);
  EXPECT_LT(entries[0].t_begin, entries[0].t_end);
}

}  // namespace
}  // namespace urbane::ingest
