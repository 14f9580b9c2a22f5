#ifndef URBANE_UTIL_RANDOM_H_
#define URBANE_UTIL_RANDOM_H_

#include <cstdint>

namespace urbane {

/// Deterministic, fast PRNG (xoshiro256** seeded via SplitMix64).
///
/// Every data generator in the repo takes an explicit seed and goes through
/// this class so that datasets, tests and benchmarks are reproducible across
/// platforms (std::mt19937 distributions are not guaranteed identical across
/// standard library implementations).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  std::uint64_t NextUint64();

  /// Uniform in [0, bound). `bound` must be > 0. Uses rejection sampling to
  /// avoid modulo bias.
  std::uint64_t NextUint64(std::uint64_t bound);

  /// Uniform in [0, 1).
  double NextDouble();

  /// Uniform in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Standard normal via Box–Muller (cached pair).
  double NextGaussian();

  /// Normal with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  /// Bernoulli trial.
  bool NextBool(double probability_true = 0.5);

  /// Exponential with rate lambda (> 0).
  double NextExponential(double lambda);

  /// Integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t NextInt(std::int64_t lo, std::int64_t hi);

 private:
  std::uint64_t state_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// SplitMix64 step — also useful directly for hashing small integers.
std::uint64_t SplitMix64(std::uint64_t& state);

}  // namespace urbane

#endif  // URBANE_UTIL_RANDOM_H_
