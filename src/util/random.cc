#include "util/random.h"

#include <cmath>

#include "util/logging.h"

namespace urbane {

namespace {

inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

constexpr double kTwoPi = 6.283185307179586476925286766559;

}  // namespace

std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64(sm);
  }
}

std::uint64_t Rng::NextUint64() {
  const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::NextUint64(std::uint64_t bound) {
  URBANE_DCHECK(bound > 0) << "bound must be positive";
  // Lemire-style rejection: retry while in the biased tail.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = NextUint64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

double Rng::NextDouble() {
  // 53 high-quality bits -> [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  while (u1 <= 0.0) {
    u1 = NextDouble();
  }
  const double u2 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  cached_gaussian_ = radius * std::sin(kTwoPi * u2);
  has_cached_gaussian_ = true;
  return radius * std::cos(kTwoPi * u2);
}

double Rng::NextGaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

bool Rng::NextBool(double probability_true) {
  return NextDouble() < probability_true;
}

double Rng::NextExponential(double lambda) {
  URBANE_DCHECK(lambda > 0.0) << "lambda must be positive";
  double u = NextDouble();
  while (u <= 0.0) {
    u = NextDouble();
  }
  return -std::log(u) / lambda;
}

std::int64_t Rng::NextInt(std::int64_t lo, std::int64_t hi) {
  URBANE_DCHECK(lo <= hi) << "empty integer range";
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(NextUint64());
  }
  return lo + static_cast<std::int64_t>(NextUint64(span));
}

}  // namespace urbane
