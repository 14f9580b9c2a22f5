// Known values of the one Z-order encoder: the key the splat order and the
// block store both sort by. x takes the even bits, y the odd bits.
#include "raster/morton.h"

#include <gtest/gtest.h>

namespace urbane::raster {
namespace {

TEST(MortonTest, KnownValues) {
  EXPECT_EQ(MortonPixelKey(0, 0), 0u);
  EXPECT_EQ(MortonPixelKey(1, 0), 1u);
  EXPECT_EQ(MortonPixelKey(0, 1), 2u);
  EXPECT_EQ(MortonPixelKey(1, 1), 3u);
  EXPECT_EQ(MortonPixelKey(2, 0), 4u);
  EXPECT_EQ(MortonPixelKey(0xFFFF, 0xFFFF), 0xFFFFFFFFu);
}

}  // namespace
}  // namespace urbane::raster
