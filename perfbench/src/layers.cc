#include "layers.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <limits>
#include <map>
#include <utility>

#include "core/planner.h"
#include "core/sql.h"
#include "data/json.h"
#include "net/http.h"
#include "sampling.h"
#include "server/json_api.h"

namespace urbane::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Median of five runs of `fn`, in microseconds: one run of a
// microsecond-scale parser is at the mercy of a single interrupt.
template <typename Fn>
double TimeUs(Fn&& fn) {
  std::array<double, 5> runs{};
  for (double& run : runs) {
    const Clock::time_point begin = Clock::now();
    fn();
    run = std::chrono::duration<double, std::micro>(Clock::now() - begin)
              .count();
  }
  std::sort(runs.begin(), runs.end());
  return runs[2];
}

double Number(const data::JsonValue* value) {
  return value != nullptr && value->is_number() ? value->AsNumber() : 0.0;
}

const data::JsonValue* Member(const data::JsonValue* object,
                              const char* key) {
  return object != nullptr ? object->Find(key) : nullptr;
}

std::string Text(const data::JsonValue* value) {
  return value != nullptr && value->is_string() ? value->AsString() : "";
}

std::string RequestBody(const std::string& request) {
  const std::size_t split = request.find("\r\n\r\n");
  return split == std::string::npos ? "" : request.substr(split + 4);
}

// The urbane.result.v1 document back as the BackendResult the server
// rendered it from, so the render layer can be re-timed on the same rows.
server::BackendResult ResultFromJson(const data::JsonValue& doc) {
  server::BackendResult result;
  result.dataset = Text(doc.Find("dataset"));
  result.regions_layer = Text(doc.Find("regions_layer"));
  result.method = Text(doc.Find("method"));
  const data::JsonValue* exact = doc.Find("exact");
  result.exact = exact != nullptr && exact->is_bool() && exact->AsBool();
  if (const data::JsonValue* watermark = doc.Find("watermark")) {
    result.watermark = static_cast<std::uint64_t>(Number(watermark));
  }
  const data::JsonValue* regions = doc.Find("regions");
  if (regions == nullptr || !regions->is_array()) return result;
  for (const data::JsonValue& region : regions->AsArray()) {
    server::RegionRow row;
    row.id = static_cast<std::int64_t>(Number(region.Find("id")));
    row.name = Text(region.Find("name"));
    const data::JsonValue* value = region.Find("value");
    row.value = value != nullptr && value->is_number()
                    ? value->AsNumber()
                    : std::numeric_limits<double>::quiet_NaN();
    row.count = static_cast<std::uint64_t>(Number(region.Find("count")));
    if (const data::JsonValue* bound = region.Find("error_bound")) {
      row.has_error_bound = true;
      row.error_bound = bound->is_number()
                            ? bound->AsNumber()
                            : std::numeric_limits<double>::quiet_NaN();
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

class SpanBuilder {
 public:
  SpanBuilder(std::vector<Span>* spans, std::uint64_t request)
      : spans_(spans), request_(request) {}

  // Adds a span of `duration_ms` starting at `start_ms`, clipped to its
  // parent's end; returns its index in the span vector.
  std::size_t Add(const std::string& name, std::size_t parent_index,
                  double start_ms, double duration_ms) {
    Span span;
    span.id = spans_->size() + 1;
    span.request = request_;
    span.name = name;
    span.start_ms = start_ms;
    span.end_ms = start_ms + std::max(0.0, duration_ms);
    if (parent_index != kNoParent) {
      const Span& parent = (*spans_)[parent_index];
      span.parent = parent.id;
      span.start_ms = std::min(span.start_ms, parent.end_ms);
      span.end_ms = std::min(span.end_ms, parent.end_ms);
    }
    spans_->push_back(std::move(span));
    return spans_->size() - 1;
  }

  // Lays children end to end from the parent's start.
  void Sequence(std::size_t parent_index,
                const std::vector<std::pair<std::string, double>>& children,
                std::vector<std::size_t>* indices = nullptr) {
    double cursor = (*spans_)[parent_index].start_ms;
    for (const auto& [name, duration] : children) {
      const std::size_t index = Add(name, parent_index, cursor, duration);
      cursor = (*spans_)[index].end_ms;
      if (indices != nullptr) indices->push_back(index);
    }
  }

  double StartOf(std::size_t index) const { return (*spans_)[index].start_ms; }

  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

 private:
  std::vector<Span>* spans_;
  std::uint64_t request_;
};

// The executor passes of one urbane.profile.v1 cost block, in pass order.
std::vector<std::pair<std::string, double>> PassSpans(
    const data::JsonValue* costs) {
  const auto ms = [&](const char* key) {
    return Number(Member(costs, key)) * 1e3;
  };
  return {{"core.filter", ms("filter_seconds")},
          {"raster.splat", ms("splat_seconds")},
          {"raster.sweep", ms("sweep_seconds")},
          {"core.reduce", ms("reduce_seconds")},
          {"core.refine", ms("refine_seconds")}};
}

// Per-layer samples across the replay.
struct Samples {
  std::vector<double> http_parse_us, transport_ms, queue_wait_ms, decode_us,
      ingest_decode_ms, render_us, response_kib, backend_ms, sql_parse_us,
      plan_us, cache_hit_ms, lock_wait_ms, filter_ms, refine_ms, splat_ms,
      sweep_ms, scatter_ms, merge_ms, imbalance, append_ms, components;
  std::map<std::string, double> plans;
  double probes = 0, hits = 0, executed = 0;
  double points_scanned = 0, points_matched = 0, pip_tests = 0,
         pixels_touched = 0, tiles_visited = 0, boundary_pixels = 0;
  double blocks_total = 0, blocks_pruned = 0, rows_pruned = 0;
  double rows_examined = 0;
};

double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

double PerExecuted(double total, const Samples& s) {
  return s.executed > 0 ? total / s.executed : 0.0;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

void AnalyzeQuery(const TracedExchange& exchange, const LayerInputs& inputs,
                  SpanBuilder& builder, std::size_t root, Samples& s) {
  const std::string body = RequestBody(exchange.request);
  const double http_parse_us = TimeUs([&] {
    net::HttpRequestParser parser;
    parser.Feed(exchange.request.data(), exchange.request.size());
  });
  const double decode_us =
      TimeUs([&] { (void)server::ParseApiRequest(body); });
  StatusOr<server::ApiRequest> api = server::ParseApiRequest(body);
  const std::string sql = api.ok() ? api->sql : "";
  const double sql_parse_us = TimeUs([&] { (void)core::ParseQuerySql(sql); });

  double plan_us = 0.0;
  StatusOr<core::ParsedQuery> parsed = core::ParseQuerySql(sql);
  if (exchange.method == "auto" && inputs.engine != nullptr && parsed.ok()) {
    // The facade's ExecuteAuto planning steps, through public calls.
    const core::SpatialAggregation& engine = *inputs.engine;
    plan_us = TimeUs([&] {
      core::WorkloadProfile profile;
      profile.num_points = engine.points().size();
      profile.num_regions = engine.regions().size();
      profile.total_region_vertices = engine.regions().TotalVertexCount();
      profile.world = engine.points().Bounds();
      profile.world.Extend(engine.regions().Bounds());
      profile.selectivity =
          engine.EstimateSelectivity(parsed->filter).value_or(1.0);
      profile.available_shards = engine.num_shards();
      (void)core::PlanQuery(profile, core::AccuracyRequirement());
    });
    s.plan_us.push_back(plan_us);
  }

  StatusOr<data::JsonValue> doc = data::ParseJson(exchange.body);
  if (!doc.ok()) return;
  const double elapsed_ms = Number(doc->Find("elapsed_ms"));
  const server::BackendResult result = ResultFromJson(*doc);
  std::size_t response_bytes = 0;
  const double render_us = TimeUs([&] {
    response_bytes = server::RenderResult(result, elapsed_ms).Dump(-1).size();
  });

  const data::JsonValue* profile = doc->Find("profile");
  const data::JsonValue* request = Member(profile, "request");
  const double queue_wait_ms =
      Number(Member(request, "queue_wait_seconds")) * 1e3;
  const double facade_ms = Number(Member(request, "wall_seconds")) * 1e3;
  const data::JsonValue* totals =
      Member(Member(profile, "executor"), "totals");
  const double executor_ms = Number(Member(totals, "query_seconds")) * 1e3;
  // A live data set's own cache answers before any component engine runs,
  // so its hits show as a profile with no executed method.
  const std::string cache = Text(Member(profile, "cache"));
  const bool executed = !Text(Member(profile, "method")).empty() &&
                        cache != "hit" && executor_ms > 0.0;
  const bool hit = !executed;

  std::vector<std::size_t> stages;
  builder.Sequence(root,
                   {{"server.queue_wait", queue_wait_ms},
                    {"net.http_parse", http_parse_us / 1e3},
                    {"server.decode", decode_us / 1e3},
                    {"urbane.backend", elapsed_ms},
                    {"server.render", render_us / 1e3}},
                   &stages);
  std::vector<std::pair<std::string, double>> backend_children = {
      {"core.sql_parse", sql_parse_us / 1e3}};
  if (plan_us > 0) backend_children.emplace_back("core.plan", plan_us / 1e3);
  backend_children.emplace_back("core.facade", facade_ms);
  std::vector<std::size_t> backend_spans;
  builder.Sequence(stages[3], backend_children, &backend_spans);
  const std::size_t facade = backend_spans.back();

  s.probes += 1;
  s.http_parse_us.push_back(http_parse_us);
  s.decode_us.push_back(decode_us);
  s.sql_parse_us.push_back(sql_parse_us);
  s.render_us.push_back(render_us);
  s.response_kib.push_back(static_cast<double>(response_bytes + 1) / 1024.0);
  s.queue_wait_ms.push_back(queue_wait_ms);
  s.backend_ms.push_back(elapsed_ms);
  if (const std::string choice = Text(Member(Member(profile, "planner"),
                                             "choice"));
      !choice.empty()) {
    s.plans[choice] += 1;
  }
  if (exchange.components > 0) {
    s.components.push_back(static_cast<double>(exchange.components));
  }
  if (hit) {
    s.hits += 1;
    s.cache_hit_ms.push_back(elapsed_ms);
    return;
  }

  s.executed += 1;
  for (const server::RegionRow& row : result.rows) {
    s.points_matched += static_cast<double>(row.count);
  }
  s.lock_wait_ms.push_back(std::max(0.0, facade_ms - executor_ms));
  s.points_scanned += Number(Member(totals, "points_scanned"));
  s.pip_tests += Number(Member(totals, "pip_tests"));
  s.pixels_touched += Number(Member(totals, "pixels_touched"));
  s.tiles_visited += Number(Member(totals, "tiles_visited"));
  s.boundary_pixels += Number(Member(totals, "boundary_pixels"));
  const data::JsonValue* store = Member(profile, "store");
  s.blocks_total += Number(Member(store, "blocks_total"));
  s.blocks_pruned += Number(Member(store, "blocks_pruned"));
  s.rows_pruned += Number(Member(store, "rows_pruned"));
  const double rows = result.watermark.has_value()
                          ? static_cast<double>(*result.watermark)
                          : static_cast<double>(inputs.table_rows);
  s.rows_examined +=
      std::max(0.0, rows - Number(Member(store, "rows_pruned")));

  const data::JsonValue* sharding = Member(profile, "sharding");
  const data::JsonValue* shard_rows = Member(sharding, "shards");
  if (shard_rows != nullptr && shard_rows->is_array() &&
      !shard_rows->AsArray().empty()) {
    const double scatter = Number(Member(sharding, "scatter_seconds")) * 1e3;
    const double merge = Number(Member(sharding, "merge_seconds")) * 1e3;
    std::vector<std::size_t> phases;
    builder.Sequence(facade, {{"shard.scatter", scatter},
                              {"shard.merge", merge}},
                     &phases);
    double slowest = 0.0;
    double sum = 0.0;
    const data::JsonValue* critical = nullptr;
    for (const data::JsonValue& row : shard_rows->AsArray()) {
      const double wall = Number(row.Find("wall_seconds")) * 1e3;
      const std::size_t index =
          static_cast<std::size_t>(Number(row.Find("index")));
      // Shards run concurrently: each starts with the scatter.
      const std::size_t shard =
          builder.Add("shard." + std::to_string(index), phases[0],
                      builder.StartOf(phases[0]), wall);
      builder.Sequence(shard, PassSpans(row.Find("costs")));
      if (critical == nullptr || wall > slowest) critical = &row;
      slowest = std::max(slowest, wall);
      sum += wall;
    }
    const double mean =
        sum / static_cast<double>(shard_rows->AsArray().size());
    s.scatter_ms.push_back(slowest);
    s.merge_ms.push_back(merge);
    s.imbalance.push_back(mean > 0 ? slowest / mean : 1.0);
    // Pass times of a sharded frame are its slowest shard's: the critical
    // path (the executor totals add counters, not times).
    totals = critical->Find("costs");
  } else {
    builder.Sequence(facade, PassSpans(totals));
  }
  const auto seconds_ms = [&](const char* key) {
    return Number(Member(totals, key)) * 1e3;
  };
  s.filter_ms.push_back(seconds_ms("filter_seconds"));
  s.refine_ms.push_back(seconds_ms("refine_seconds"));
  s.splat_ms.push_back(seconds_ms("splat_seconds"));
  s.sweep_ms.push_back(seconds_ms("sweep_seconds"));
}

}  // namespace

namespace {

void AnalyzeAppend(const TracedExchange& exchange, SpanBuilder& builder,
                   std::size_t root, Samples& s) {
  const std::string body = RequestBody(exchange.request);
  const double http_parse_us = TimeUs([&] {
    net::HttpRequestParser parser;
    parser.Feed(exchange.request.data(), exchange.request.size());
  });
  const double decode_us =
      TimeUs([&] { (void)server::ParseIngestRequest(body); });
  StatusOr<data::JsonValue> doc = data::ParseJson(exchange.body);
  const double append_ms = doc.ok() ? Number(doc->Find("elapsed_ms")) : 0.0;
  builder.Sequence(root, {{"net.http_parse", http_parse_us / 1e3},
                          {"server.ingest_decode", decode_us / 1e3},
                          {"ingest.append", append_ms}});
  s.ingest_decode_ms.push_back(decode_us / 1e3);
  s.append_ms.push_back(append_ms);
}

}  // namespace

double SelfTimeMs(const Span& span, const std::vector<Span>& children) {
  std::vector<std::pair<double, double>> covered;
  for (const Span& child : children) {
    const double begin = std::max(child.start_ms, span.start_ms);
    const double end = std::min(child.end_ms, span.end_ms);
    if (end > begin) covered.emplace_back(begin, end);
  }
  std::sort(covered.begin(), covered.end());
  double union_ms = 0.0;
  double cursor = span.start_ms;
  for (const auto& [begin, end] : covered) {
    const double from = std::max(begin, cursor);
    if (end > from) union_ms += end - from;
    cursor = std::max(cursor, end);
  }
  return std::max(0.0, (span.end_ms - span.start_ms) - union_ms);
}

std::vector<Metric> AnalyzeLayers(const std::vector<TracedExchange>& exchanges,
                                  const LayerInputs& inputs,
                                  std::vector<Span>* spans) {
  Samples s;
  std::uint64_t request_id = 0;
  for (const TracedExchange& exchange : exchanges) {
    if (exchange.status != 200) continue;
    SpanBuilder builder(spans, ++request_id);
    const std::size_t root =
        builder.Add(exchange.append ? "client.append" : "client.frame",
                    SpanBuilder::kNoParent, exchange.start_ms,
                    exchange.rtt_ms);
    const std::size_t first_child = spans->size();
    if (exchange.append) {
      AnalyzeAppend(exchange, builder, root, s);
    } else {
      AnalyzeQuery(exchange, inputs, builder, root, s);
    }
    // The root's self time is what no server-side layer accounts for:
    // connect, kernel socket work and the client's own read.
    std::vector<Span> children;
    for (std::size_t i = first_child; i < spans->size(); ++i) {
      if ((*spans)[i].parent == (*spans)[root].id) {
        children.push_back((*spans)[i]);
      }
    }
    if (!exchange.append) {
      s.transport_ms.push_back(SelfTimeMs((*spans)[root], children));
    }
  }

  const auto plan_count = [&](const char* method) {
    const auto it = s.plans.find(method);
    return it == s.plans.end() ? 0.0 : it->second;
  };
  const auto sum = [](const std::vector<double>& values) {
    double total = 0.0;
    for (double value : values) total += value;
    return total;
  };
  const double flushes = static_cast<double>(inputs.flush_ms.size());
  const double compactions = static_cast<double>(inputs.compact_ms.size());
  return {
      {"net.http_parse_us", Median(s.http_parse_us), "us"},
      {"net.transport_ms", Median(s.transport_ms), "ms"},
      {"server.queue_wait_p50_ms", Percentile(s.queue_wait_ms, 50), "ms"},
      {"server.queue_wait_p90_ms", Percentile(s.queue_wait_ms, 90), "ms"},
      {"server.decode_us", Median(s.decode_us), "us"},
      {"server.ingest_decode_ms", Median(s.ingest_decode_ms), "ms"},
      {"server.render_us", Median(s.render_us), "us"},
      {"server.response_kib", Median(s.response_kib), "KiB"},
      {"urbane.backend_ms", Median(s.backend_ms), "ms"},
      {"core.sql_parse_us", Median(s.sql_parse_us), "us"},
      {"core.plan_us", Median(s.plan_us), "us"},
      {"core.plan.scan", plan_count("scan"), "count"},
      {"core.plan.index", plan_count("index"), "count"},
      {"core.plan.raster", plan_count("raster"), "count"},
      {"core.plan.accurate", plan_count("accurate"), "count"},
      {"core.cache_probes", s.probes, "count"},
      {"core.cache_hits", s.hits, "count"},
      {"core.cache_hit_ratio", Ratio(s.hits, s.probes), "ratio"},
      {"core.cache_hit_ms", Median(s.cache_hit_ms), "ms"},
      {"core.lock_wait_ms", Median(s.lock_wait_ms), "ms"},
      {"core.filter_ms", Median(s.filter_ms), "ms"},
      {"core.refine_ms", Median(s.refine_ms), "ms"},
      {"core.rows_examined", PerExecuted(s.rows_examined, s), "count"},
      {"core.points_scanned", PerExecuted(s.points_scanned, s), "count"},
      {"core.points_matched", PerExecuted(s.points_matched, s), "count"},
      {"core.match_ratio", Ratio(s.points_matched, s.rows_examined),
       "ratio"},
      {"core.pip_tests", PerExecuted(s.pip_tests, s), "count"},
      {"raster.splat_ms", Median(s.splat_ms), "ms"},
      {"raster.sweep_ms", Median(s.sweep_ms), "ms"},
      {"raster.pixels_touched", PerExecuted(s.pixels_touched, s), "count"},
      {"raster.tiles_visited", PerExecuted(s.tiles_visited, s), "count"},
      {"raster.boundary_pixels", PerExecuted(s.boundary_pixels, s),
       "count"},
      {"shard.scatter_ms", Median(s.scatter_ms), "ms"},
      {"shard.merge_ms", Median(s.merge_ms), "ms"},
      {"shard.imbalance", Median(s.imbalance), "ratio"},
      {"store.open_ms", inputs.store_open_ms, "ms"},
      {"store.blocks_total", PerExecuted(s.blocks_total, s), "count"},
      {"store.blocks_pruned", PerExecuted(s.blocks_pruned, s), "count"},
      {"store.blocks_pruned_ratio", Ratio(s.blocks_pruned, s.blocks_total),
       "ratio"},
      {"store.rows_pruned", PerExecuted(s.rows_pruned, s), "count"},
      {"ingest.appends", static_cast<double>(s.append_ms.size()), "count"},
      {"ingest.append_ms", Median(s.append_ms), "ms"},
      {"ingest.flushes", flushes, "count"},
      {"ingest.flush_ms", Median(inputs.flush_ms), "ms"},
      {"ingest.compactions", compactions, "count"},
      {"ingest.compact_ms", Median(inputs.compact_ms), "ms"},
      {"ingest.bytes_appended", static_cast<double>(inputs.bytes_appended),
       "B"},
      {"ingest.bytes_written",
       static_cast<double>(inputs.storage_bytes_written), "B"},
      {"ingest.write_amp",
       Ratio(static_cast<double>(inputs.storage_bytes_written),
             static_cast<double>(inputs.bytes_appended)),
       "ratio"},
      {"ingest.components",
       s.components.empty()
           ? 0.0
           : sum(s.components) / static_cast<double>(s.components.size()),
       "count"},
  };
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& span : spans) {
    out << "{\"id\": " << span.id << ", \"parent\": " << span.parent
        << ", \"request\": " << span.request << ", \"name\": \"" << span.name
        << "\", \"start_ms\": " << FormatNumber(span.start_ms)
        << ", \"end_ms\": " << FormatNumber(span.end_ms) << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace urbane::perfbench
