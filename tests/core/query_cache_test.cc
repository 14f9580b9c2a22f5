#include "core/query_cache.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace urbane::core {
namespace {

QueryResult MakeResult(double seed, std::size_t regions = 3) {
  QueryResult result;
  for (std::size_t r = 0; r < regions; ++r) {
    result.values.push_back(seed + static_cast<double>(r));
    result.counts.push_back(static_cast<std::uint64_t>(r) + 1);
  }
  return result;
}

AggregationQuery BaseQuery() {
  AggregationQuery query;
  query.aggregate = AggregateSpec::Count();
  query.filter.WithTime(1000, 2000);
  return query;
}

TEST(QueryCacheFingerprintTest, StableForIdenticalInputs) {
  const AggregationQuery a = BaseQuery();
  const AggregationQuery b = BaseQuery();
  EXPECT_EQ(QueryCache::Fingerprint(a, ExecutionMethod::kScan, 0, 0),
            QueryCache::Fingerprint(b, ExecutionMethod::kScan, 0, 0));
}

TEST(QueryCacheFingerprintTest, EveryKeyComponentSplitsTheKey) {
  const AggregationQuery base = BaseQuery();
  const std::uint64_t key =
      QueryCache::Fingerprint(base, ExecutionMethod::kBoundedRaster, 512, 7);

  // Method.
  EXPECT_NE(key, QueryCache::Fingerprint(base, ExecutionMethod::kScan, 512, 7));
  // Canvas resolution (the ε axis — the headline stale-ε bug).
  EXPECT_NE(key, QueryCache::Fingerprint(base, ExecutionMethod::kBoundedRaster,
                                         1024, 7));
  // ... which shapes only raster answers: a scan key ignores it.
  EXPECT_EQ(QueryCache::Fingerprint(base, ExecutionMethod::kScan, 512, 7),
            QueryCache::Fingerprint(base, ExecutionMethod::kScan, 1024, 7));
  // Executor-config epoch.
  EXPECT_NE(key, QueryCache::Fingerprint(base, ExecutionMethod::kBoundedRaster,
                                         512, 8));
  // Aggregate.
  AggregationQuery agg = base;
  agg.aggregate = AggregateSpec::Sum("v");
  EXPECT_NE(key, QueryCache::Fingerprint(agg, ExecutionMethod::kBoundedRaster,
                                         512, 7));
  // Time window.
  AggregationQuery time = base;
  time.filter.time_range->end = 2001;
  EXPECT_NE(key, QueryCache::Fingerprint(time, ExecutionMethod::kBoundedRaster,
                                         512, 7));
  // Attribute range.
  AggregationQuery range = base;
  range.filter.WithRange("v", 0.0, 1.0);
  EXPECT_NE(key, QueryCache::Fingerprint(range,
                                         ExecutionMethod::kBoundedRaster, 512,
                                         7));
  // Viewport window.
  AggregationQuery window = base;
  window.filter.WithWindow(geometry::BoundingBox(0, 0, 10, 10));
  EXPECT_NE(key, QueryCache::Fingerprint(window,
                                         ExecutionMethod::kBoundedRaster, 512,
                                         7));
}

TEST(QueryCacheFingerprintTest, CountIgnoresStrayAttribute) {
  AggregationQuery a = BaseQuery();
  AggregationQuery b = BaseQuery();
  b.aggregate.attribute = "v";  // ignored by COUNT
  EXPECT_EQ(QueryCache::Fingerprint(a, ExecutionMethod::kScan, 0, 0),
            QueryCache::Fingerprint(b, ExecutionMethod::kScan, 0, 0));
}

TEST(QueryCacheTest, DisabledByDefault) {
  QueryCache cache;
  EXPECT_FALSE(cache.enabled());
  cache.Insert(1, MakeResult(1.0));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(QueryCacheTest, LookupInsertRoundTrip) {
  QueryCacheOptions options;
  options.max_entries = 8;
  QueryCache cache(options);
  EXPECT_TRUE(cache.enabled());
  EXPECT_FALSE(cache.Lookup(42).has_value());
  cache.Insert(42, MakeResult(5.0));
  const auto hit = cache.Lookup(42);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->values, MakeResult(5.0).values);
  const QueryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(QueryCacheTest, EvictsLeastRecentlyUsed) {
  QueryCacheOptions options;
  options.max_entries = 2;
  options.shards = 1;  // deterministic eviction order
  QueryCache cache(options);
  cache.Insert(1, MakeResult(1.0));
  cache.Insert(2, MakeResult(2.0));
  ASSERT_TRUE(cache.Lookup(1).has_value());  // 2 is now the LRU entry
  cache.Insert(3, MakeResult(3.0));
  EXPECT_TRUE(cache.Lookup(1, /*record_miss=*/false).has_value());
  EXPECT_FALSE(cache.Lookup(2, /*record_miss=*/false).has_value());
  EXPECT_TRUE(cache.Lookup(3, /*record_miss=*/false).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(QueryCacheTest, ByteBoundEvicts) {
  QueryCacheOptions options;
  options.max_entries = 100;
  options.shards = 1;
  options.max_bytes = 2 * QueryCache::ResultBytes(MakeResult(0.0, 64)) + 16;
  QueryCache cache(options);
  cache.Insert(1, MakeResult(1.0, 64));
  cache.Insert(2, MakeResult(2.0, 64));
  EXPECT_EQ(cache.stats().entries, 2u);
  cache.Insert(3, MakeResult(3.0, 64));
  const QueryCacheStats stats = cache.stats();
  EXPECT_LE(stats.bytes, options.max_bytes);
  EXPECT_LT(stats.entries, 3u);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_FALSE(cache.Lookup(1, /*record_miss=*/false).has_value());
}

TEST(QueryCacheTest, OversizedResultNotRetained) {
  QueryCacheOptions options;
  options.max_entries = 4;
  options.shards = 1;
  options.max_bytes = 64;  // smaller than any real result payload
  QueryCache cache(options);
  cache.Insert(1, MakeResult(1.0, 512));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(QueryCacheTest, ShrinkingCapacityTrims) {
  QueryCacheOptions options;
  options.max_entries = 8;
  options.shards = 1;
  QueryCache cache(options);
  for (std::uint64_t k = 0; k < 8; ++k) {
    cache.Insert(k, MakeResult(static_cast<double>(k)));
  }
  EXPECT_EQ(cache.stats().entries, 8u);
  cache.set_max_entries(3);
  EXPECT_EQ(cache.stats().entries, 3u);
  cache.set_max_entries(0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(QueryCacheTest, ClearDropsEntriesKeepsCounters) {
  QueryCacheOptions options;
  options.max_entries = 8;
  QueryCache cache(options);
  cache.Insert(7, MakeResult(7.0));
  ASSERT_TRUE(cache.Lookup(7).has_value());
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_FALSE(cache.Lookup(7).has_value());
}

TEST(QueryCacheTest, ShardedCapacityStaysBounded) {
  QueryCacheOptions options;
  options.max_entries = 16;
  options.shards = 8;
  QueryCache cache(options);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    // Spread keys over all shards (the router uses the high bits).
    cache.Insert(k * 0x9e3779b97f4a7c15ull, MakeResult(1.0));
  }
  EXPECT_LE(cache.stats().entries, 16u);
}

TEST(QueryCacheTest, ConcurrentMixedTrafficIsSafe) {
  QueryCacheOptions options;
  options.max_entries = 64;
  QueryCache cache(options);
  constexpr int kThreads = 4;
  constexpr int kIters = 400;
  std::vector<std::thread> threads;
  std::vector<int> corrupt(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &corrupt, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t key =
            static_cast<std::uint64_t>((t * 7 + i) % 97) *
            0x9e3779b97f4a7c15ull;
        const double seed = static_cast<double>((t * 7 + i) % 97);
        if (i % 3 == 0) {
          cache.Insert(key, MakeResult(seed));
        } else if (const auto hit = cache.Lookup(key)) {
          if (hit->values != MakeResult(seed).values) {
            corrupt[t] = 1;  // a key must only ever map to its own result
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(corrupt[t], 0) << "thread " << t << " read a torn entry";
  }
}

}  // namespace
}  // namespace urbane::core
