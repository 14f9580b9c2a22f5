// Corrupt-file corpus for the UST1 block store: truncation at every field
// boundary, bad magic / end magic, version skew, oversized counts, and
// zone-map/layout mismatches must all yield a clean IoError naming the
// problem, and byte flips over the header, footer and trailer must never
// crash a reader or a query — never UB (this suite is in the sanitizer
// label so ASan/UBSan and TSan builds sweep it too).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "core/spatial_aggregation.h"
#include "store/format.h"
#include "store/store_reader.h"
#include "store/store_writer.h"
#include "testing/test_worlds.h"
#include "util/csv.h"

namespace urbane::store {
namespace {

std::string WriteSampleStore(const std::string& name, std::size_t rows = 600,
                             std::uint64_t block_rows = 128) {
  const data::PointTable table = testing::MakeUniformPoints(rows, 91);
  const std::string path = ::testing::TempDir() + "/" + name;
  StoreWriterOptions options;
  options.block_rows = block_rows;
  EXPECT_TRUE(WritePointStore(table, path, options).ok());
  return path;
}

std::string ReadAll(const std::string& path) {
  auto content = ReadFileToString(path);
  EXPECT_TRUE(content.ok());
  return content.ok() ? *content : std::string();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  ASSERT_TRUE(WriteStringToFile(bytes, path).ok());
}

class StoreTruncationTest : public ::testing::TestWithParam<int> {};

TEST_P(StoreTruncationTest, EveryStrictPrefixRejected) {
  // Parameter-unique filename: ctest runs each instance as its own process
  // against the same TempDir, so a shared name races under -j.
  const std::string path =
      WriteSampleStore("trunc_" + std::to_string(GetParam()) + ".ust");
  const std::string bytes = ReadAll(path);
  const std::size_t keep =
      bytes.size() * static_cast<std::size_t>(GetParam()) / 100;
  WriteAll(path, bytes.substr(0, keep));
  const auto reader = StoreReader::Open(path);
  EXPECT_FALSE(reader.ok()) << "kept " << keep << " of " << bytes.size();
  if (!reader.ok()) {
    EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Fractions, StoreTruncationTest,
                         ::testing::Values(0, 1, 5, 15, 40, 70, 95, 99));

TEST(StoreCorruptionTest, TruncationAtEveryFieldBoundaryOfHeaderAndTrailer) {
  const std::string path = WriteSampleStore("trunc_fields.ust");
  const std::string bytes = ReadAll(path);
  // Header field boundaries: magic, version, row_count, block_rows,
  // block_count, attr_count, name len, name, data_offset; plus trailer
  // boundaries at the end of the file.
  const std::size_t cuts[] = {0,  4,  8,  16, 24,
                              32, 40, 48, 49, bytes.size() - kTrailerBytes,
                              bytes.size() - 4, bytes.size() - 1};
  for (const std::size_t cut : cuts) {
    WriteAll(path, bytes.substr(0, cut));
    const auto reader = StoreReader::Open(path);
    EXPECT_FALSE(reader.ok()) << "cut at " << cut;
  }
  std::remove(path.c_str());
}

TEST(StoreCorruptionTest, BadMagicNamesFoundAndExpected) {
  const std::string path = WriteSampleStore("badmagic.ust");
  std::string bytes = ReadAll(path);
  bytes[0] = 'X';
  WriteAll(path, bytes);
  const auto reader = StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("bad magic"), std::string::npos);
  EXPECT_NE(reader.status().message().find("XST1"), std::string::npos);
  EXPECT_NE(reader.status().message().find("UST1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(StoreCorruptionTest, BadEndMagicRejected) {
  const std::string path = WriteSampleStore("badend.ust");
  std::string bytes = ReadAll(path);
  bytes[bytes.size() - 1] = '?';
  WriteAll(path, bytes);
  const auto reader = StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("end magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(StoreCorruptionTest, VersionSkewRejectedWithActionableMessage) {
  const std::string path = WriteSampleStore("version.ust");
  std::string bytes = ReadAll(path);
  bytes[4] = 9;  // version lives right after the magic
  WriteAll(path, bytes);
  const auto reader = StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("unsupported store version"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(StoreCorruptionTest, OversizedRowCountRejectedWithoutAllocation) {
  const std::string path = WriteSampleStore("rowcount.ust");
  std::string bytes = ReadAll(path);
  const std::uint64_t absurd = ~0ULL >> 1;
  std::memcpy(&bytes[8], &absurd, sizeof(absurd));  // row_count field
  WriteAll(path, bytes);
  EXPECT_FALSE(StoreReader::Open(path).ok());
  std::remove(path.c_str());
}

TEST(StoreCorruptionTest, OversizedAttributeNameLengthRejected) {
  const std::string path = WriteSampleStore("namelen.ust");
  std::string bytes = ReadAll(path);
  const std::uint64_t absurd = 1ULL << 50;
  std::memcpy(&bytes[40], &absurd, sizeof(absurd));  // first name length
  WriteAll(path, bytes);
  const auto reader = StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("count"), std::string::npos);
  std::remove(path.c_str());
}

TEST(StoreCorruptionTest, ZoneMapRowCountMismatchRejected) {
  const std::string path = WriteSampleStore("zonemap.ust");
  std::string bytes = ReadAll(path);
  // The trailer's footer_offset locates the first zone-map record; bump its
  // row_count so the blocks no longer tile [0, rows).
  std::uint64_t footer_offset = 0;
  std::memcpy(&footer_offset, &bytes[bytes.size() - kTrailerBytes],
              sizeof(footer_offset));
  std::uint64_t zm_rows = 0;
  std::memcpy(&zm_rows, &bytes[footer_offset + 8], sizeof(zm_rows));
  zm_rows += 7;
  std::memcpy(&bytes[footer_offset + 8], &zm_rows, sizeof(zm_rows));
  WriteAll(path, bytes);
  const auto reader = StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(StoreCorruptionTest, FooterOffsetMismatchRejected) {
  const std::string path = WriteSampleStore("footer.ust");
  std::string bytes = ReadAll(path);
  std::uint64_t footer_offset = 0;
  std::memcpy(&footer_offset, &bytes[bytes.size() - kTrailerBytes],
              sizeof(footer_offset));
  footer_offset += kSectionAlignment;
  std::memcpy(&bytes[bytes.size() - kTrailerBytes], &footer_offset,
              sizeof(footer_offset));
  WriteAll(path, bytes);
  const auto reader = StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("footer offset"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(StoreCorruptionTest, HeaderByteFlipSweepNeverCrashes) {
  // Flip every byte of the header region one at a time. Each mutant must
  // either open (flip hit padding or a value-neutral bit... it can't here —
  // every header byte is load-bearing except name characters) or fail with
  // a clean status; either way, touching the data must be safe.
  const std::string path = WriteSampleStore("bitflip.ust", 300, 64);
  const std::string bytes = ReadAll(path);
  const std::size_t header_end = 64;
  for (std::size_t at = 0; at < header_end; ++at) {
    std::string mutant = bytes;
    mutant[at] = static_cast<char>(mutant[at] ^ 0x40);
    WriteAll(path, mutant);
    const auto reader = StoreReader::Open(path);
    if (reader.ok()) {
      const auto copy = reader->Materialize();
      if (copy.ok()) {
        EXPECT_EQ(copy->size(), reader->row_count());
      }
    }
  }
  std::remove(path.c_str());
}

TEST(StoreCorruptionTest, FooterAndTrailerByteFlipSweepNeverCrashes) {
  // Flip every byte from the zone-map footer to the end of the file. A
  // mutant must fail Open with an IoError, or open and serve its rows and
  // a COUNT by every method, unwindowed and windowed, with the mutant's
  // zone maps attached. Flipped extents that still tile the rows do open:
  // without a footer checksum they may prune needed blocks or shift the
  // canvas, so such answers can be wrong — but the process must survive.
  const std::string path = WriteSampleStore("footer_flip.ust", 600, 64);
  const std::string bytes = ReadAll(path);
  std::uint64_t footer_offset = 0;
  std::memcpy(&footer_offset, &bytes[bytes.size() - kTrailerBytes],
              sizeof(footer_offset));
  ASSERT_LT(footer_offset, bytes.size());
  const data::RegionSet regions = testing::MakeRandomRegions(3, 92);
  core::RasterJoinOptions raster_options;
  raster_options.resolution = 64;
  core::FilterSpec window;
  window.spatial_window = geometry::BoundingBox(10.0, 10.0, 40.0, 40.0);
  const core::ExecutionMethod methods[] = {
      core::ExecutionMethod::kScan, core::ExecutionMethod::kIndexJoin,
      core::ExecutionMethod::kBoundedRaster,
      core::ExecutionMethod::kAccurateRaster};
  for (std::size_t at = footer_offset; at < bytes.size(); ++at) {
    std::string mutant = bytes;
    mutant[at] = static_cast<char>(mutant[at] ^ 0xFF);
    WriteAll(path, mutant);
    const auto reader = StoreReader::Open(path);
    if (!reader.ok()) {
      EXPECT_EQ(reader.status().code(), StatusCode::kIoError)
          << "byte " << at;
      continue;
    }
    const auto copy = reader->Materialize();
    ASSERT_TRUE(copy.ok()) << "byte " << at;
    EXPECT_EQ(copy->size(), reader->row_count());
    const auto view = reader->MappedTable();
    ASSERT_TRUE(view.ok()) << "byte " << at;
    core::SpatialAggregation engine(*view, regions, raster_options);
    engine.AttachZoneMaps(&reader->zone_maps());
    for (const core::ExecutionMethod method : methods) {
      for (const core::FilterSpec& filter : {core::FilterSpec(), window}) {
        core::AggregationQuery query;
        query.filter = filter;
        const auto result = engine.Execute(query, method);
        EXPECT_TRUE(result.ok())
            << "byte " << at << " " << core::ExecutionMethodToString(method)
            << ": " << result.status().ToString();
      }
    }
  }
  std::remove(path.c_str());
}

TEST(StoreCorruptionTest, NotAStoreFileRejected) {
  const std::string path = ::testing::TempDir() + "/not_a_store.ust";
  WriteAll(path, "this is not a UST1 file at all");
  const auto reader = StoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
  EXPECT_FALSE(StoreReader::Open(::testing::TempDir() + "/missing.ust").ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace urbane::store
