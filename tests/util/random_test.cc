#include "util/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace urbane {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextDoubleRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble(-5.0, 3.0);
    EXPECT_GE(v, -5.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, BoundedUintStaysBelowBound) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextUint64(10), 10u);
  }
}

TEST(RngTest, BoundedUintCoversAllResidues) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.NextUint64(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(2024);
  const int n = 200000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParamsShiftsAndScales) {
  Rng rng(5);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextGaussian(10.0, 2.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(11);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextExponential(0.5);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextBoolProbability) {
  Rng rng(17);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBool(0.25)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.25, 0.01);
}

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  std::uint64_t s1 = 0;
  std::uint64_t s2 = 0;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(SplitMix64(s1), SplitMix64(s2));
  }
  EXPECT_EQ(s1, s2);
}

}  // namespace
}  // namespace urbane
