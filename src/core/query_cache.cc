#include "core/query_cache.h"

#include <algorithm>
#include <cstring>

#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace urbane::core {

namespace {

/// Mirrors a per-shard counter bump into the global registry so the bench
/// harness and the CLI `stats` command see cache traffic without polling
/// every engine. Registry metric objects have stable addresses, so the
/// lazily-bound references stay valid across MetricsRegistry::Reset.
void BumpCacheCounter(const char* name) {
  if (!obs::MetricsEnabled()) {
    return;
  }
  obs::MetricsRegistry::Global().GetCounter(name).Add(1);
}

/// FNV-1a 64 over explicitly encoded fields. Field order and the presence
/// flags make the encoding canonical: two queries fingerprint equal iff
/// they would produce the same answer under the same executor config.
class Fnv64 {
 public:
  void Mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ (value & 0xffu)) * 1099511628211ull;
      value >>= 8;
    }
  }
  void MixDouble(double value) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    Mix(bits);
  }
  void MixString(const std::string& s) {
    Mix(s.size());
    for (const char c : s) {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

}  // namespace

std::uint64_t QueryCache::Fingerprint(const AggregationQuery& query,
                                      ExecutionMethod method,
                                      int canvas_resolution,
                                      std::uint64_t config_epoch) {
  Fnv64 fnv;
  fnv.Mix(config_epoch);
  fnv.Mix(static_cast<std::uint64_t>(method));
  const bool raster = method == ExecutionMethod::kBoundedRaster ||
                      method == ExecutionMethod::kAccurateRaster;
  fnv.Mix(static_cast<std::uint64_t>(raster ? canvas_resolution : 0));
  fnv.Mix(static_cast<std::uint64_t>(query.aggregate.kind));
  // COUNT ignores its attribute, so a stray attribute must not split keys
  // (mirrors AggregationQuery::ToString, which renders COUNT(*)).
  if (query.aggregate.NeedsAttribute()) {
    fnv.MixString(query.aggregate.attribute);
  }
  const FilterSpec& filter = query.filter;
  fnv.Mix(filter.time_range.has_value() ? 1 : 0);
  if (filter.time_range) {
    fnv.Mix(static_cast<std::uint64_t>(filter.time_range->begin));
    fnv.Mix(static_cast<std::uint64_t>(filter.time_range->end));
  }
  fnv.Mix(filter.spatial_window.has_value() ? 1 : 0);
  if (filter.spatial_window) {
    fnv.MixDouble(filter.spatial_window->min_x);
    fnv.MixDouble(filter.spatial_window->min_y);
    fnv.MixDouble(filter.spatial_window->max_x);
    fnv.MixDouble(filter.spatial_window->max_y);
  }
  fnv.Mix(filter.attribute_ranges.size());
  for (const AttributeRange& range : filter.attribute_ranges) {
    fnv.MixString(range.attribute);
    fnv.MixDouble(range.lo);
    fnv.MixDouble(range.hi);
  }
  return fnv.hash();
}

std::size_t QueryCache::ResultBytes(const QueryResult& result) {
  return sizeof(QueryResult) +
         result.values.capacity() * sizeof(double) +
         result.counts.capacity() * sizeof(std::uint64_t) +
         result.error_bounds.capacity() * sizeof(double);
}

QueryCache::QueryCache(const QueryCacheOptions& options)
    : max_entries_(options.max_entries),
      max_bytes_(options.max_bytes),
      shard_count_(std::max<std::size_t>(1, options.shards)),
      shards_(new Shard[shard_count_]) {}

std::size_t QueryCache::ShardBound(const Shard& shard,
                                   std::size_t total) const {
  const std::size_t index = static_cast<std::size_t>(&shard - shards_.get());
  return total / shard_count_ + (index < total % shard_count_ ? 1 : 0);
}

void QueryCache::TrimLocked(Shard& shard) {
  const std::size_t entry_bound =
      ShardBound(shard, max_entries_.load(std::memory_order_relaxed));
  const std::size_t byte_bound = ShardBound(shard, max_bytes_);
  while (!shard.lru.empty() &&
         (shard.lru.size() > entry_bound || shard.bytes > byte_bound)) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    if (obs::JournalEnabled()) {
      obs::Event evict;
      evict.kind = obs::EventKind::kCacheEvict;
      evict.fingerprint = victim.key;
      evict.value = static_cast<double>(victim.bytes);
      obs::EmitEvent(evict);
    }
    shard.map.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
    BumpCacheCounter("cache.evictions");
  }
}

std::optional<QueryResult> QueryCache::Lookup(std::uint64_t key,
                                              bool record_miss) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    if (record_miss) {
      ++shard.misses;
      BumpCacheCounter("cache.misses");
    }
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  BumpCacheCounter("cache.hits");
  return it->second->result;
}

void QueryCache::Insert(std::uint64_t key, const QueryResult& result,
                        const FilterSpec& filter) {
  if (!enabled()) {
    return;
  }
  std::optional<TimeInterval> valid_time;
  if (filter.time_range.has_value()) {
    valid_time = TimeInterval{filter.time_range->begin, filter.time_range->end};
  }
  Shard& shard = ShardFor(key);
  const std::size_t bytes = ResultBytes(result);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // Refresh in place (an epoch bump means re-computed answers get new
    // keys, so a same-key refresh carries an identical result).
    shard.bytes -= it->second->bytes;
    it->second->result = result;
    it->second->bytes = bytes;
    it->second->valid_time = valid_time;
    shard.bytes += bytes;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    shard.lru.push_front(Entry{key, result, bytes, valid_time});
    shard.map.emplace(key, shard.lru.begin());
    shard.bytes += bytes;
    ++shard.inserts;
    BumpCacheCounter("cache.inserts");
  }
  TrimLocked(shard);
}

std::size_t QueryCache::InvalidateTimeOverlap(std::int64_t begin,
                                              std::int64_t end) {
  std::size_t dropped = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      const bool affected =
          !it->valid_time.has_value() ||
          (it->valid_time->begin < end && it->valid_time->end > begin);
      if (!affected) {
        ++it;
        continue;
      }
      shard.bytes -= it->bytes;
      shard.map.erase(it->key);
      it = shard.lru.erase(it);
      ++dropped;
    }
  }
  return dropped;
}

void QueryCache::Clear() {
  for (std::size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.map.clear();
    shard.bytes = 0;
  }
}

void QueryCache::set_max_entries(std::size_t max_entries) {
  max_entries_.store(max_entries, std::memory_order_relaxed);
  for (std::size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    TrimLocked(shard);
  }
}

QueryCacheStats QueryCache::stats() const {
  QueryCacheStats total;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.hits;
    total.misses += shard.misses;
    total.inserts += shard.inserts;
    total.evictions += shard.evictions;
    total.entries += shard.lru.size();
    total.bytes += shard.bytes;
  }
  return total;
}

}  // namespace urbane::core
