// Failure injection: region-set snapshots truncated or bit-flipped at
// arbitrary offsets must be rejected with a clean Status — never a crash,
// hang, or silent short read. (Point stores have their own corpus in
// tests/store/store_corruption_test.cc.)
#include <gtest/gtest.h>

#include <cstdio>

#include "data/binary_io.h"
#include "data/region_generator.h"
#include "store/store_writer.h"
#include "testing/test_worlds.h"
#include "util/csv.h"

namespace urbane::data {
namespace {

// URG1 layout: magic(4), then the region count (u64).
constexpr std::size_t kRegionCountOffset = 4;

class TruncationSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(TruncationSweepTest, TruncatedRegionSnapshotRejected) {
  const RegionSet regions = testing::MakeTessellationRegions(4, 78);
  // Parameter-unique filename: ctest runs each instance as its own process
  // against the same TempDir, so a shared name races under -j.
  const std::string path = ::testing::TempDir() + "/trunc_sweep_" +
                           std::to_string(GetParam()) + ".urg";
  ASSERT_TRUE(WriteRegionSetBinary(regions, path).ok());
  const auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  const std::size_t keep =
      content->size() * static_cast<std::size_t>(GetParam()) / 100;
  ASSERT_TRUE(WriteStringToFile(content->substr(0, keep), path).ok());
  EXPECT_FALSE(ReadRegionSetBinary(path).ok());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Fractions, TruncationSweepTest,
                         ::testing::Values(0, 3, 10, 25, 50, 75, 90, 99));

/// Writes a small region snapshot whose region count has its top byte
/// blown up, so it claims an absurd size.
std::string WriteOversizedCountSnapshot(const std::string& name) {
  const RegionSet regions = testing::MakeTessellationRegions(2, 79);
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(WriteRegionSetBinary(regions, path).ok());
  auto content = ReadFileToString(path);
  EXPECT_TRUE(content.ok());
  std::string bytes = content.ok() ? std::move(*content) : std::string();
  EXPECT_LT(kRegionCountOffset + 8, bytes.size());
  bytes[kRegionCountOffset + 7] = '\x7f';
  EXPECT_TRUE(WriteStringToFile(bytes, path).ok());
  return path;
}

TEST(CorruptionTest, LengthFieldBitFlipRejected) {
  // The reader must refuse the flipped count rather than attempt a huge
  // allocation.
  const std::string path = WriteOversizedCountSnapshot("bitflip.urg");
  EXPECT_FALSE(ReadRegionSetBinary(path).ok());
  std::remove(path.c_str());
}

TEST(CorruptionTest, WrongMagicNamesFoundAndExpected) {
  // A UST1 point store handed to the region reader must say exactly what
  // it found and what it wanted — the actionable half of the error.
  const PointTable table = testing::MakeUniformPoints(100, 80);
  const std::string path = ::testing::TempDir() + "/cross_format.ust";
  ASSERT_TRUE(store::WritePointStore(table, path).ok());
  const auto loaded = ReadRegionSetBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("UST1"), std::string::npos)
      << loaded.status().message();
  EXPECT_NE(loaded.status().message().find("URG1"), std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST(CorruptionTest, OversizedCountErrorNamesByteOffset) {
  const std::string path = WriteOversizedCountSnapshot("count_offset.urg");
  const auto loaded = ReadRegionSetBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  // The message must locate the corrupt field by its byte offset, right
  // past the magic.
  EXPECT_NE(loaded.status().message().find(
                "offset " + std::to_string(kRegionCountOffset) + " "),
            std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST(CorruptionTest, EmptyFileRejected) {
  const std::string path = ::testing::TempDir() + "/empty_zero_bytes.urg";
  ASSERT_TRUE(WriteStringToFile("", path).ok());
  EXPECT_FALSE(ReadRegionSetBinary(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace urbane::data
