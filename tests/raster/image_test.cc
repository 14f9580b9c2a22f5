#include "raster/image.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "util/csv.h"

namespace urbane::raster {
namespace {

TEST(WritePpmTest, ProducesValidHeaderAndSize) {
  Image image(4, 2, Rgb{10, 20, 30});
  const std::string path = ::testing::TempDir() + "/image_test.ppm";
  ASSERT_TRUE(WritePpm(image, path).ok());
  const auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content->substr(0, 2), "P6");
  // Header "P6\n4 2\n255\n" + 4*2*3 bytes.
  EXPECT_EQ(content->size(), std::string("P6\n4 2\n255\n").size() + 24);
  std::remove(path.c_str());
}

TEST(WritePpmTest, RowsAreFlipped) {
  Image image(1, 2);
  image.at(0, 0) = Rgb{1, 1, 1};    // bottom row
  image.at(0, 1) = Rgb{255, 0, 0};  // top row
  const std::string path = ::testing::TempDir() + "/image_flip_test.ppm";
  ASSERT_TRUE(WritePpm(image, path).ok());
  const auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  const std::size_t header = std::string("P6\n1 2\n255\n").size();
  // First written pixel must be the TOP row (red).
  EXPECT_EQ(static_cast<unsigned char>((*content)[header]), 255);
  std::remove(path.c_str());
}

TEST(WritePpmTest, BadPathFails) {
  Image image(1, 1);
  EXPECT_FALSE(WritePpm(image, "/nonexistent_dir_xyz/out.ppm").ok());
}

TEST(ColormapBufferTest, AutoScalesToMinMax) {
  Buffer2D<float> values(2, 1);
  values.at(0, 0) = 0.0f;
  values.at(1, 0) = 10.0f;
  const Colormap cm = Colormap::Make(ColormapKind::kGrayscale);
  const Image image = ColormapBuffer(values, cm);
  EXPECT_EQ(image.at(0, 0), cm.Map(0.0));
  EXPECT_EQ(image.at(1, 0), cm.Map(1.0));
}

TEST(ColormapBufferTest, ExplicitRange) {
  Buffer2D<float> values(1, 1);
  values.at(0, 0) = 5.0f;
  const Colormap cm = Colormap::Make(ColormapKind::kGrayscale);
  const Image image = ColormapBuffer(values, cm, 0.0, 10.0);
  EXPECT_EQ(image.at(0, 0), cm.Map(0.5));
}

TEST(ColormapBufferTest, ConstantBufferDoesNotCrash) {
  Buffer2D<float> values(3, 3, 4.0f);
  const Image image =
      ColormapBuffer(values, Colormap::Make(ColormapKind::kViridis));
  EXPECT_EQ(image.width(), 3);
}

TEST(ColormapCountsTest, LogScaleCompressesRange) {
  Buffer2D<std::uint32_t> counts(3, 1, 0);
  counts.at(0, 0) = 0;
  counts.at(1, 0) = 10;
  counts.at(2, 0) = 1000;
  const Colormap cm = Colormap::Make(ColormapKind::kGrayscale);
  const Image log_img = ColormapCounts(counts, cm, /*log_scale=*/true);
  const Image lin_img = ColormapCounts(counts, cm, /*log_scale=*/false);
  // With log scaling, the mid pixel is visibly brighter than with linear.
  EXPECT_GT(log_img.at(1, 0).r, lin_img.at(1, 0).r);
}

}  // namespace
}  // namespace urbane::raster
