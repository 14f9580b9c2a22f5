#include "obs/profile.h"

#include <atomic>
#include <chrono>
#include <ctime>
#include <utility>

#include "util/string_util.h"

namespace urbane::obs {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

void AppendHex64(std::string* out, std::uint64_t value, int digits) {
  for (int shift = (digits - 1) * 4; shift >= 0; shift -= 4) {
    out->push_back(kHexDigits[(value >> shift) & 0xF]);
  }
}

/// Parses exactly `digits` hex chars of `text` at `pos`; false on any
/// non-hex byte. Accepts both cases (W3C mandates lowercase on emit, but
/// tolerating uppercase on ingest costs nothing).
bool ParseHex(const std::string& text, std::size_t pos, int digits,
              std::uint64_t* out) {
  std::uint64_t value = 0;
  for (int i = 0; i < digits; ++i) {
    const char c = text[pos + static_cast<std::size_t>(i)];
    std::uint64_t nibble;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      nibble = static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      return false;
    }
    value = (value << 4) | nibble;
  }
  *out = value;
  return true;
}

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

data::JsonValue U64(std::uint64_t value) {
  return data::JsonValue(static_cast<double>(value));
}

}  // namespace

std::string TraceContext::TraceIdHex() const {
  std::string out;
  out.reserve(32);
  AppendHex64(&out, trace_hi, 16);
  AppendHex64(&out, trace_lo, 16);
  return out;
}

std::string TraceContext::ToTraceparent() const {
  std::string out;
  out.reserve(55);
  out += "00-";
  AppendHex64(&out, trace_hi, 16);
  AppendHex64(&out, trace_lo, 16);
  out.push_back('-');
  AppendHex64(&out, parent_id, 16);
  out.push_back('-');
  AppendHex64(&out, flags, 2);
  return out;
}

bool ParseTraceparent(const std::string& header, TraceContext* out) {
  // version(2) '-' trace-id(32) '-' parent-id(16) '-' flags(2) == 55 bytes.
  if (header.size() != 55) return false;
  if (header[2] != '-' || header[35] != '-' || header[52] != '-') {
    return false;
  }
  std::uint64_t version = 0;
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t parent = 0;
  std::uint64_t flags = 0;
  if (!ParseHex(header, 0, 2, &version) ||
      !ParseHex(header, 3, 16, &trace_hi) ||
      !ParseHex(header, 19, 16, &trace_lo) ||
      !ParseHex(header, 36, 16, &parent) ||
      !ParseHex(header, 53, 2, &flags)) {
    return false;
  }
  // 0xff is forbidden; all-zero trace or parent ids are invalid per spec.
  if (version == 0xFF) return false;
  if ((trace_hi | trace_lo) == 0 || parent == 0) return false;
  out->trace_hi = trace_hi;
  out->trace_lo = trace_lo;
  out->parent_id = parent;
  out->flags = static_cast<std::uint8_t>(flags);
  return true;
}

TraceContext GenerateTraceContext() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t now = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  TraceContext context;
  context.trace_hi = SplitMix64(now ^ (n << 32));
  context.trace_lo = SplitMix64(n + 0x632BE59BD9B4E019ULL);
  if (!context.valid()) context.trace_lo = 1;  // all-zero ids are invalid
  context.parent_id = SplitMix64(context.trace_lo ^ now);
  if (context.parent_id == 0) context.parent_id = 1;
  context.flags = 0x01;
  return context;
}

double ThreadCpuSeconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
#else
  return 0.0;
#endif
}

void ProfilePassCosts::AddCounters(const ProfilePassCosts& other) {
  points_scanned += other.points_scanned;
  points_bulk += other.points_bulk;
  pip_tests += other.pip_tests;
  refine_rows += other.refine_rows;
  pixels_touched += other.pixels_touched;
  boundary_pixels += other.boundary_pixels;
  tiles_visited += other.tiles_visited;
  simd_fragments += other.simd_fragments;
}

data::JsonValue ProfilePassCosts::ToJson() const {
  data::JsonValue::Object doc;
  doc.emplace_back("points_scanned", U64(points_scanned));
  doc.emplace_back("points_bulk", U64(points_bulk));
  doc.emplace_back("pip_tests", U64(pip_tests));
  doc.emplace_back("refine_rows", U64(refine_rows));
  doc.emplace_back("pixels_touched", U64(pixels_touched));
  doc.emplace_back("boundary_pixels", U64(boundary_pixels));
  doc.emplace_back("tiles_visited", U64(tiles_visited));
  doc.emplace_back("simd_fragments", U64(simd_fragments));
  doc.emplace_back("filter_seconds", data::JsonValue(filter_seconds));
  doc.emplace_back("splat_seconds", data::JsonValue(splat_seconds));
  doc.emplace_back("sweep_seconds", data::JsonValue(sweep_seconds));
  doc.emplace_back("reduce_seconds", data::JsonValue(reduce_seconds));
  doc.emplace_back("refine_seconds", data::JsonValue(refine_seconds));
  doc.emplace_back("query_seconds", data::JsonValue(query_seconds));
  return data::JsonValue(std::move(doc));
}

data::JsonValue QueryProfile::ToJson() const {
  data::JsonValue::Object doc;
  doc.emplace_back("schema", data::JsonValue("urbane.profile.v1"));
  doc.emplace_back("trace_id", data::JsonValue(context.TraceIdHex()));
  doc.emplace_back("traceparent", data::JsonValue(context.ToTraceparent()));
  doc.emplace_back("method", data::JsonValue(method));
  doc.emplace_back("cache", data::JsonValue(cache));

  data::JsonValue::Object planner;
  planner.emplace_back("choice", data::JsonValue(planner_choice));
  planner.emplace_back("explanation", data::JsonValue(planner_explanation));
  doc.emplace_back("planner", data::JsonValue(std::move(planner)));

  data::JsonValue::Object request;
  request.emplace_back("queue_wait_seconds",
                       data::JsonValue(queue_wait_seconds));
  request.emplace_back("wall_seconds", data::JsonValue(wall_seconds));
  request.emplace_back("cpu_seconds", data::JsonValue(cpu_seconds));
  request.emplace_back("prepare_seconds", data::JsonValue(prepare_seconds));
  doc.emplace_back("request", data::JsonValue(std::move(request)));

  data::JsonValue::Object store;
  store.emplace_back("blocks_total", U64(blocks_total));
  store.emplace_back("blocks_pruned", U64(blocks_pruned));
  store.emplace_back("rows_pruned", U64(rows_pruned));
  doc.emplace_back("store", data::JsonValue(std::move(store)));

  data::JsonValue::Object executor;
  executor.emplace_back("threads_used", U64(threads_used));
  executor.emplace_back("totals", totals.ToJson());
  doc.emplace_back("executor", data::JsonValue(std::move(executor)));

  data::JsonValue::Object shard_section;
  shard_section.emplace_back("count", U64(shards.size()));
  shard_section.emplace_back("scatter_seconds",
                             data::JsonValue(scatter_seconds));
  shard_section.emplace_back("merge_seconds", data::JsonValue(merge_seconds));
  data::JsonValue::Array shard_rows;
  shard_rows.reserve(shards.size());
  for (const ShardProfileEntry& shard : shards) {
    data::JsonValue::Object row;
    row.emplace_back("index", U64(shard.index));
    row.emplace_back("rows_begin", U64(shard.rows_begin));
    row.emplace_back("rows_end", U64(shard.rows_end));
    row.emplace_back("candidate_rows", U64(shard.candidate_rows));
    row.emplace_back("wall_seconds", data::JsonValue(shard.wall_seconds));
    row.emplace_back("cpu_seconds", data::JsonValue(shard.cpu_seconds));
    row.emplace_back("costs", shard.costs.ToJson());
    shard_rows.emplace_back(std::move(row));
  }
  shard_section.emplace_back("shards", data::JsonValue(std::move(shard_rows)));
  doc.emplace_back("sharding", data::JsonValue(std::move(shard_section)));
  return data::JsonValue(std::move(doc));
}

std::string QueryProfile::ToTable() const {
  std::string out;
  out += "trace    " + context.TraceIdHex() + "\n";
  out += StringPrintf(
      "query    method=%s cache=%s wall=%.3fms cpu=%.3fms prepare=%.3fms",
      method.c_str(), cache.c_str(), wall_seconds * 1e3, cpu_seconds * 1e3,
      prepare_seconds * 1e3);
  if (queue_wait_seconds > 0.0) {
    out += StringPrintf(" queue_wait=%.3fms", queue_wait_seconds * 1e3);
  }
  out += "\n";
  if (!planner_choice.empty()) {
    out += "planner  " + planner_choice;
    if (!planner_explanation.empty()) out += ": " + planner_explanation;
    out += "\n";
  }
  if (blocks_total > 0) {
    out += StringPrintf(
        "store    blocks=%llu pruned=%llu rows_pruned=%llu\n",
        static_cast<unsigned long long>(blocks_total),
        static_cast<unsigned long long>(blocks_pruned),
        static_cast<unsigned long long>(rows_pruned));
  }
  out += StringPrintf(
      "passes   filter=%.3fms splat=%.3fms sweep=%.3fms reduce=%.3fms "
      "refine=%.3fms\n",
      totals.filter_seconds * 1e3, totals.splat_seconds * 1e3,
      totals.sweep_seconds * 1e3, totals.reduce_seconds * 1e3,
      totals.refine_seconds * 1e3);
  out += StringPrintf(
      "counters points=%llu bulk=%llu pip=%llu refine_rows=%llu pixels=%llu "
      "boundary=%llu tiles=%llu simd=%llu threads=%llu\n",
      static_cast<unsigned long long>(totals.points_scanned),
      static_cast<unsigned long long>(totals.points_bulk),
      static_cast<unsigned long long>(totals.pip_tests),
      static_cast<unsigned long long>(totals.refine_rows),
      static_cast<unsigned long long>(totals.pixels_touched),
      static_cast<unsigned long long>(totals.boundary_pixels),
      static_cast<unsigned long long>(totals.tiles_visited),
      static_cast<unsigned long long>(totals.simd_fragments),
      static_cast<unsigned long long>(threads_used));
  if (!shards.empty()) {
    out += StringPrintf("shards   count=%llu scatter=%.3fms merge=%.3fms\n",
                        static_cast<unsigned long long>(shards.size()),
                        scatter_seconds * 1e3, merge_seconds * 1e3);
    out += "  shard rows                 candidates   wall       cpu        "
           "points     pip\n";
    for (const ShardProfileEntry& shard : shards) {
      out += StringPrintf(
          "  %-5llu [%llu,%llu) %-12llu %-10.3f %-10.3f %-10llu %llu\n",
          static_cast<unsigned long long>(shard.index),
          static_cast<unsigned long long>(shard.rows_begin),
          static_cast<unsigned long long>(shard.rows_end),
          static_cast<unsigned long long>(shard.candidate_rows),
          shard.wall_seconds * 1e3, shard.cpu_seconds * 1e3,
          static_cast<unsigned long long>(shard.costs.points_scanned),
          static_cast<unsigned long long>(shard.costs.pip_tests));
    }
  }
  return out;
}

void CanonicalizeProfileJson(data::JsonValue* doc) {
  if (doc == nullptr) return;
  if (doc->is_object()) {
    for (auto& [key, value] : doc->AsObject()) {
      if (value.is_number() && key.size() > 8 &&
          key.compare(key.size() - 8, 8, "_seconds") == 0) {
        value = data::JsonValue(0.0);
      } else {
        CanonicalizeProfileJson(&value);
      }
    }
  } else if (doc->is_array()) {
    for (data::JsonValue& element : doc->AsArray()) {
      CanonicalizeProfileJson(&element);
    }
  }
}

ProfileStore::ProfileStore(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

ProfileStore& ProfileStore::Global() {
  static ProfileStore* store = new ProfileStore();  // never destroyed
  return *store;
}

void ProfileStore::Insert(const QueryProfile& profile) {
  const std::string key = profile.context.TraceIdHex();
  Entry entry;
  entry.doc = profile.ToJson();
  entry.method = profile.method;
  entry.cache = profile.cache;
  entry.wall_seconds = profile.wall_seconds;
  entry.shards = profile.shards.size();

  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.find(key) == entries_.end()) {
    order_.push_back(key);
  } else {
    // Replacement refreshes eviction order: drop the stale position.
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (*it == key) {
        order_.erase(it);
        break;
      }
    }
    order_.push_back(key);
  }
  entries_[key] = std::move(entry);
  while (order_.size() > capacity_) {
    entries_.erase(order_.front());
    order_.pop_front();
  }
}

bool ProfileStore::Lookup(const std::string& trace_id,
                          data::JsonValue* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(trace_id);
  if (it == entries_.end()) return false;
  if (out != nullptr) *out = it->second.doc;
  return true;
}

data::JsonValue ProfileStore::Recent(std::size_t limit) const {
  data::JsonValue::Array profiles;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t n = order_.size();
    const std::size_t take = limit < n ? limit : n;
    profiles.reserve(take);
    // Newest first.
    for (std::size_t k = 0; k < take; ++k) {
      const std::string& key = order_[n - 1 - k];
      const auto it = entries_.find(key);
      if (it == entries_.end()) continue;
      data::JsonValue::Object row;
      row.emplace_back("trace_id", data::JsonValue(key));
      row.emplace_back("method", data::JsonValue(it->second.method));
      row.emplace_back("cache", data::JsonValue(it->second.cache));
      row.emplace_back("wall_seconds",
                       data::JsonValue(it->second.wall_seconds));
      row.emplace_back("shards", U64(it->second.shards));
      profiles.emplace_back(std::move(row));
    }
  }
  data::JsonValue::Object doc;
  doc.emplace_back("schema", data::JsonValue("urbane.profiles.v1"));
  doc.emplace_back("profiles", data::JsonValue(std::move(profiles)));
  return data::JsonValue(std::move(doc));
}

std::size_t ProfileStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void ProfileStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  order_.clear();
}

}  // namespace urbane::obs
