#include "util/timer.h"

#include <gtest/gtest.h>

#include <thread>

namespace urbane {
namespace {

TEST(WallTimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const double elapsed = timer.ElapsedSeconds();
  EXPECT_GE(elapsed, 0.009);
  EXPECT_LT(elapsed, 5.0);
}

TEST(WallTimerTest, RestartResets) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), 0.005);
}

TEST(WallTimerTest, UnitConversions) {
  WallTimer timer;
  const double s = timer.ElapsedSeconds();
  EXPECT_GE(timer.ElapsedMillis(), s * 1e3);
}

TEST(FormatDurationTest, PicksAdaptiveUnits) {
  EXPECT_EQ(FormatDuration(2.5), "2.50s");
  EXPECT_EQ(FormatDuration(0.0125), "12.50ms");
  EXPECT_EQ(FormatDuration(42e-6), "42.0us");
  EXPECT_EQ(FormatDuration(120e-9), "120ns");
}

}  // namespace
}  // namespace urbane
