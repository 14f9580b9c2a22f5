#include "urbane/cli.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/sql.h"
#include "data/binary_io.h"
#include "data/csv_loader.h"
#include "data/event_generator.h"
#include "data/geojson.h"
#include "data/region_generator.h"
#include "data/taxi_generator.h"
#include "geometry/mercator.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "obs/slow_query_log.h"
#include "server/json_api.h"
#include "urbane/map_view.h"
#include "util/csv.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace urbane::app {

namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (const char c : line) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) {
        tokens.push_back(std::move(current));
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) {
    tokens.push_back(std::move(current));
  }
  return tokens;
}

StatusOr<std::uint64_t> ParseCount(const std::string& text) {
  URBANE_ASSIGN_OR_RETURN(std::int64_t value, ParseInt64(text));
  if (value <= 0) {
    return Status::InvalidArgument("count must be positive: " + text);
  }
  return static_cast<std::uint64_t>(value);
}

}  // namespace

const char* CommandInterpreter::Help() {
  return "commands:\n"
         "  gen taxi|311|crime <name> <count> [seed]\n"
         "  gen regions <name> boroughs|neighborhoods|tracts [seed]\n"
         "  load points <name> <file.csv>\n"
         "  load regions <name> <file.geojson|file.urg>\n"
         "  save points <name> <file.csv>\n"
         "  save regions <name> <file.geojson|file.urg>\n"
         "  save workspace <dir> | load workspace <manifest.json>\n"
         "    (data sets as <name>.ust stores, layers as <name>.urg)\n"
         "  convert <points> <file.ust> [block-rows]\n"
         "  open <name> <file.ust>   (memory-mapped, zone maps attached)\n"
         "  method scan|index|raster|accurate\n"
         "  live <dataset> <dir> [attr...] | live <dataset>\n"
         "  ingest <dataset> <count> [seed]\n"
         "  flush <dataset> | compact <dataset>\n"
         "  cache <points> <regions> on [entries]|off|stats\n"
         "  sql SELECT AGG(attr|*) FROM <points>, <regions> [WHERE ...]\n"
         "  explain analyze [json] SELECT ...\n"
         "  map <points> <regions> <out.ppm> [title...]\n"
         "  stats [on|off|reset|json]\n"
         "  serve [[start] [sink <path>]|stop|status]\n"
         "  server [[start] [port] [workers N] [queue N] [timeout MS] "
         "[shards N]|stop|status]\n"
         "  events [drain|status|on|off|reset]\n"
         "  slowlog [arm [threshold-ms]|arm p99 [multiplier]|disarm|clear|"
         "json]\n"
         "  list | help | quit\n";
}

bool CommandInterpreter::Execute(const std::string& line, std::ostream& out) {
  bool quit = false;
  const Status status = Dispatch(line, out, quit);
  if (!status.ok()) {
    out << "error: " << status.ToString() << "\n";
  }
  return !quit;
}

Status CommandInterpreter::Dispatch(const std::string& line,
                                    std::ostream& out, bool& quit) {
  const std::string trimmed(TrimWhitespace(line));
  if (trimmed.empty() || trimmed[0] == '#') {
    return Status::OK();
  }
  const std::vector<std::string> tokens = Tokenize(trimmed);
  const std::string command = ToLowerAscii(tokens[0]);
  if (command == "quit" || command == "exit") {
    quit = true;
    return Status::OK();
  }
  if (command == "help") {
    out << Help();
    return Status::OK();
  }
  if (command == "list") {
    CmdList(out);
    return Status::OK();
  }
  if (command == "gen") {
    return CmdGen(tokens, out);
  }
  if (command == "load") {
    if (tokens.size() >= 2 && ToLowerAscii(tokens[1]) == "workspace") {
      if (tokens.size() != 3) {
        return Status::InvalidArgument(
            "usage: load workspace <manifest.json>");
      }
      URBANE_RETURN_IF_ERROR(manager_.LoadWorkspace(tokens[2]));
      out << "loaded workspace " << tokens[2] << "\n";
      CmdList(out);
      return Status::OK();
    }
    return CmdLoad(tokens, out);
  }
  if (command == "save") {
    if (tokens.size() >= 2 && ToLowerAscii(tokens[1]) == "workspace") {
      if (tokens.size() != 3) {
        return Status::InvalidArgument("usage: save workspace <directory>");
      }
      URBANE_RETURN_IF_ERROR(manager_.SaveWorkspace(tokens[2]));
      out << "saved workspace to " << tokens[2] << "\n";
      return Status::OK();
    }
    return CmdSave(tokens, out);
  }
  if (command == "convert") {
    return CmdConvert(tokens, out);
  }
  if (command == "open") {
    return CmdOpen(tokens, out);
  }
  if (command == "method") {
    return CmdMethod(tokens, out);
  }
  if (command == "live") {
    return CmdLive(tokens, out);
  }
  if (command == "ingest") {
    return CmdIngest(tokens, out);
  }
  if (command == "flush") {
    return CmdFlush(tokens, out);
  }
  if (command == "compact") {
    return CmdCompact(tokens, out);
  }
  if (command == "cache") {
    return CmdCache(tokens, out);
  }
  if (command == "sql" || command == "select") {
    // Allow both "sql SELECT ..." and bare "SELECT ...".
    const std::string sql =
        command == "sql" ? trimmed.substr(tokens[0].size()) : trimmed;
    return CmdSql(std::string(TrimWhitespace(sql)), out);
  }
  if (command == "explain") {
    if (tokens.size() < 3 || ToLowerAscii(tokens[1]) != "analyze") {
      return Status::InvalidArgument("usage: explain analyze [json] <sql>");
    }
    // Strip "explain analyze" (as typed) from the raw line; the rest is
    // the statement, whose spacing must survive untouched.
    std::size_t pos =
        trimmed.find_first_not_of(" \t", tokens[0].size());
    pos = trimmed.find_first_of(" \t", pos);
    return CmdExplain(std::string(TrimWhitespace(trimmed.substr(pos))), out);
  }
  if (command == "map") {
    return CmdMap(tokens, out);
  }
  if (command == "stats") {
    return CmdStats(tokens, out);
  }
  if (command == "serve") {
    return CmdServe(tokens, out);
  }
  if (command == "server") {
    return CmdServer(tokens, out);
  }
  if (command == "events") {
    return CmdEvents(tokens, out);
  }
  if (command == "slowlog") {
    return CmdSlowlog(tokens, out);
  }
  return Status::InvalidArgument("unknown command '" + tokens[0] +
                                 "' (try 'help')");
}

Status CommandInterpreter::CmdGen(const std::vector<std::string>& args,
                                  std::ostream& out) {
  if (args.size() < 4) {
    return Status::InvalidArgument("usage: gen <kind> <name> <count|layer>");
  }
  const std::string kind = ToLowerAscii(args[1]);
  const std::string& name = args[2];
  std::uint64_t seed = 42;
  if (args.size() >= 5) {
    URBANE_ASSIGN_OR_RETURN(std::int64_t parsed, ParseInt64(args[4]));
    seed = static_cast<std::uint64_t>(parsed);
  }
  WallTimer timer;
  if (kind == "taxi") {
    URBANE_ASSIGN_OR_RETURN(std::uint64_t count, ParseCount(args[3]));
    data::TaxiGeneratorOptions options;
    options.num_trips = count;
    options.seed = seed;
    URBANE_RETURN_IF_ERROR(
        manager_.AddPointDataset(name, data::GenerateTaxiTrips(options)));
  } else if (kind == "311" || kind == "crime") {
    URBANE_ASSIGN_OR_RETURN(std::uint64_t count, ParseCount(args[3]));
    data::UrbanEventOptions options;
    options.kind = kind == "311" ? data::UrbanEventKind::kServiceRequests311
                                 : data::UrbanEventKind::kCrimeIncidents;
    options.num_events = count;
    options.seed = seed;
    URBANE_RETURN_IF_ERROR(
        manager_.AddPointDataset(name, data::GenerateUrbanEvents(options)));
  } else if (kind == "regions") {
    const std::string layer = ToLowerAscii(args[3]);
    data::RegionSet regions;
    if (layer == "boroughs") {
      regions = data::GenerateBoroughs(seed);
    } else if (layer == "neighborhoods") {
      regions = data::GenerateNeighborhoods(seed);
    } else if (layer == "tracts") {
      regions = data::GenerateCensusTracts(seed);
    } else {
      return Status::InvalidArgument("unknown region layer: " + args[3]);
    }
    URBANE_RETURN_IF_ERROR(manager_.AddRegionLayer(name, std::move(regions)));
  } else {
    return Status::InvalidArgument("unknown generator kind: " + args[1]);
  }
  out << "generated '" << name << "' in "
      << FormatDuration(timer.ElapsedSeconds()) << "\n";
  return Status::OK();
}

Status CommandInterpreter::CmdLoad(const std::vector<std::string>& args,
                                   std::ostream& out) {
  if (args.size() != 4) {
    return Status::InvalidArgument(
        "usage: load points|regions <name> <path>");
  }
  const std::string what = ToLowerAscii(args[1]);
  const std::string& name = args[2];
  const std::string& path = args[3];
  WallTimer timer;
  if (what == "points") {
    URBANE_ASSIGN_OR_RETURN(data::PointTable table,
                            data::ReadPointTableCsvFile(path));
    const std::size_t rows = table.size();
    URBANE_RETURN_IF_ERROR(manager_.AddPointDataset(name, std::move(table)));
    out << "loaded " << rows << " points into '" << name << "' in "
        << FormatDuration(timer.ElapsedSeconds()) << "\n";
    return Status::OK();
  }
  if (what == "regions") {
    data::RegionSet regions;
    if (EndsWith(path, ".urg")) {
      URBANE_ASSIGN_OR_RETURN(regions, data::ReadRegionSetBinary(path));
    } else {
      URBANE_ASSIGN_OR_RETURN(regions, data::ReadGeoJsonRegionsFile(path));
    }
    const std::size_t count = regions.size();
    URBANE_RETURN_IF_ERROR(manager_.AddRegionLayer(name, std::move(regions)));
    out << "loaded " << count << " regions into '" << name << "' in "
        << FormatDuration(timer.ElapsedSeconds()) << "\n";
    return Status::OK();
  }
  return Status::InvalidArgument("load expects 'points' or 'regions'");
}

Status CommandInterpreter::CmdSave(const std::vector<std::string>& args,
                                   std::ostream& out) {
  if (args.size() != 4) {
    return Status::InvalidArgument(
        "usage: save points|regions <name> <path>");
  }
  const std::string what = ToLowerAscii(args[1]);
  const std::string& name = args[2];
  const std::string& path = args[3];
  if (what == "points") {
    URBANE_ASSIGN_OR_RETURN(const data::PointTable* table,
                            manager_.PointDataset(name));
    URBANE_RETURN_IF_ERROR(data::WritePointTableCsvFile(*table, path));
  } else if (what == "regions") {
    URBANE_ASSIGN_OR_RETURN(const data::RegionSet* regions,
                            manager_.RegionLayer(name));
    if (EndsWith(path, ".urg")) {
      URBANE_RETURN_IF_ERROR(data::WriteRegionSetBinary(*regions, path));
    } else {
      URBANE_RETURN_IF_ERROR(
          WriteStringToFile(data::WriteGeoJsonRegions(*regions), path));
    }
  } else {
    return Status::InvalidArgument("save expects 'points' or 'regions'");
  }
  out << "saved '" << name << "' to " << path << "\n";
  return Status::OK();
}

Status CommandInterpreter::CmdConvert(const std::vector<std::string>& args,
                                      std::ostream& out) {
  if (args.size() != 3 && args.size() != 4) {
    return Status::InvalidArgument(
        "usage: convert <points> <file.ust> [block-rows]");
  }
  std::uint64_t block_rows = 64 * 1024;
  if (args.size() == 4) {
    URBANE_ASSIGN_OR_RETURN(block_rows, ParseCount(args[3]));
  }
  WallTimer timer;
  URBANE_ASSIGN_OR_RETURN(
      store::StoreWriterStats stats,
      manager_.ConvertToStore(args[1], args[2], block_rows));
  out << "converted '" << args[1] << "' to " << args[2] << ": "
      << stats.rows_written << " rows in " << stats.blocks_written
      << " blocks (" << stats.file_bytes << " bytes) in "
      << FormatDuration(timer.ElapsedSeconds()) << "\n";
  return Status::OK();
}

Status CommandInterpreter::CmdOpen(const std::vector<std::string>& args,
                                   std::ostream& out) {
  if (args.size() != 3) {
    return Status::InvalidArgument("usage: open <name> <file.ust>");
  }
  WallTimer timer;
  URBANE_RETURN_IF_ERROR(manager_.AddStoreDataset(args[1], args[2]));
  URBANE_ASSIGN_OR_RETURN(const data::PointTable* table,
                          manager_.PointDataset(args[1]));
  out << "opened store " << args[2] << " as '" << args[1] << "': "
      << table->size() << " rows"
      << (table->is_view() ? " (memory-mapped)" : " (materialized)")
      << " in " << FormatDuration(timer.ElapsedSeconds()) << "\n";
  return Status::OK();
}

Status CommandInterpreter::CmdMethod(const std::vector<std::string>& args,
                                     std::ostream& out) {
  if (args.size() != 2) {
    return Status::InvalidArgument(
        "usage: method scan|index|raster|accurate");
  }
  URBANE_ASSIGN_OR_RETURN(const std::optional<core::ExecutionMethod> method,
                          server::ParseMethodName(ToLowerAscii(args[1])));
  // The interpreter holds one method, so the server's "auto" has no place.
  if (!method.has_value()) {
    return Status::InvalidArgument(
        "method auto is not a CLI method (expected scan | index | raster | "
        "accurate)");
  }
  method_ = *method;
  out << "execution method = " << core::ExecutionMethodToString(method_)
      << "\n";
  return Status::OK();
}

Status CommandInterpreter::CmdLive(const std::vector<std::string>& args,
                                   std::ostream& out) {
  if (args.size() < 2) {
    return Status::InvalidArgument(
        "usage: live <dataset> <dir> [attr...] | live <dataset>");
  }
  const std::string& name = args[1];
  if (args.size() == 2) {
    URBANE_ASSIGN_OR_RETURN(ingest::IngestStats stats,
                            manager_.IngestStatsFor(name));
    out << StringPrintf(
        "live '%s': watermark=%llu (base=%llu hot=%llu) sealed-runs=%llu "
        "store-runs=%llu\n"
        "  appends=%llu rows=%llu rejected=%llu flushes=%llu "
        "compactions=%llu wal-bytes=%llu replayed=%llu\n",
        name.c_str(), static_cast<unsigned long long>(stats.watermark),
        static_cast<unsigned long long>(stats.base_rows),
        static_cast<unsigned long long>(stats.hot_rows),
        static_cast<unsigned long long>(stats.sealed_runs),
        static_cast<unsigned long long>(stats.store_runs),
        static_cast<unsigned long long>(stats.appends),
        static_cast<unsigned long long>(stats.rows_appended),
        static_cast<unsigned long long>(stats.rejected),
        static_cast<unsigned long long>(stats.flushes),
        static_cast<unsigned long long>(stats.compactions),
        static_cast<unsigned long long>(stats.wal_bytes),
        static_cast<unsigned long long>(stats.replayed_rows));
    return Status::OK();
  }
  std::vector<std::string> attrs(args.begin() + 3, args.end());
  WallTimer timer;
  URBANE_RETURN_IF_ERROR(
      manager_.EnableIngest(name, args[2], std::move(attrs)));
  URBANE_ASSIGN_OR_RETURN(ingest::IngestStats stats,
                          manager_.IngestStatsFor(name));
  out << "live '" << name << "' at " << args[2] << ": watermark="
      << stats.watermark;
  if (stats.replayed_rows > 0) {
    out << " (recovered " << stats.replayed_rows << " rows from the WAL)";
  }
  out << " in " << FormatDuration(timer.ElapsedSeconds()) << "\n";
  return Status::OK();
}

Status CommandInterpreter::CmdIngest(const std::vector<std::string>& args,
                                     std::ostream& out) {
  if (args.size() != 3 && args.size() != 4) {
    return Status::InvalidArgument("usage: ingest <dataset> <count> [seed]");
  }
  URBANE_ASSIGN_OR_RETURN(std::uint64_t count, ParseCount(args[2]));
  std::uint64_t seed = 42;
  if (args.size() == 4) {
    URBANE_ASSIGN_OR_RETURN(std::int64_t parsed, ParseInt64(args[3]));
    seed = static_cast<std::uint64_t>(parsed);
  }
  URBANE_ASSIGN_OR_RETURN(data::Schema schema,
                          manager_.LiveSchema(args[1]));
  // Synthetic rows over the same NYC footprint and month as the taxi
  // generator, so they land inside generated region layers.
  const geometry::BoundingBox bounds = geometry::NycMercatorBounds();
  const std::int64_t t0 = 1230768000;  // 2009-01-01 00:00:00 UTC
  const std::int64_t t_span = 31LL * 24 * 3600;
  Rng rng(seed);
  data::PointTable batch(schema);
  batch.Reserve(count);
  std::vector<float> attrs(schema.attribute_count(), 0.0f);
  for (std::uint64_t i = 0; i < count; ++i) {
    for (float& a : attrs) {
      a = static_cast<float>(rng.NextDouble(0.0, 100.0));
    }
    URBANE_RETURN_IF_ERROR(batch.AppendRow(
        static_cast<float>(rng.NextDouble(bounds.min_x, bounds.max_x)),
        static_cast<float>(rng.NextDouble(bounds.min_y, bounds.max_y)),
        t0 + rng.NextInt(0, t_span - 1), attrs));
  }
  WallTimer timer;
  URBANE_ASSIGN_OR_RETURN(std::uint64_t watermark,
                          manager_.IngestBatch(args[1], batch));
  out << "appended " << count << " rows to '" << args[1]
      << "': watermark=" << watermark << " in "
      << FormatDuration(timer.ElapsedSeconds()) << "\n";
  return Status::OK();
}

Status CommandInterpreter::CmdFlush(const std::vector<std::string>& args,
                                    std::ostream& out) {
  if (args.size() != 2) {
    return Status::InvalidArgument("usage: flush <dataset>");
  }
  WallTimer timer;
  URBANE_RETURN_IF_ERROR(manager_.FlushIngest(args[1]));
  URBANE_ASSIGN_OR_RETURN(ingest::IngestStats stats,
                          manager_.IngestStatsFor(args[1]));
  out << "flushed '" << args[1] << "': " << stats.store_runs
      << " store runs, watermark=" << stats.watermark << " in "
      << FormatDuration(timer.ElapsedSeconds()) << "\n";
  return Status::OK();
}

Status CommandInterpreter::CmdCompact(const std::vector<std::string>& args,
                                      std::ostream& out) {
  if (args.size() != 2) {
    return Status::InvalidArgument("usage: compact <dataset>");
  }
  WallTimer timer;
  URBANE_RETURN_IF_ERROR(manager_.CompactIngest(args[1]));
  URBANE_ASSIGN_OR_RETURN(ingest::IngestStats stats,
                          manager_.IngestStatsFor(args[1]));
  out << "compacted '" << args[1] << "' to " << stats.store_runs
      << " store run(s) in " << FormatDuration(timer.ElapsedSeconds())
      << "\n";
  return Status::OK();
}

Status CommandInterpreter::CmdCache(const std::vector<std::string>& args,
                                    std::ostream& out) {
  if (args.size() < 4) {
    return Status::InvalidArgument(
        "usage: cache <points> <regions> on [entries]|off|stats");
  }
  URBANE_ASSIGN_OR_RETURN(core::SpatialAggregation * engine,
                          manager_.Engine(args[1], args[2]));
  const std::string action = ToLowerAscii(args[3]);
  if (action == "on") {
    std::size_t entries = 1024;
    if (args.size() >= 5) {
      URBANE_ASSIGN_OR_RETURN(std::uint64_t parsed, ParseCount(args[4]));
      entries = static_cast<std::size_t>(parsed);
    }
    engine->set_result_cache_capacity(entries);
    out << "result cache on (" << entries << " entries)\n";
    return Status::OK();
  }
  if (action == "off") {
    engine->set_result_cache_capacity(0);
    out << "result cache off\n";
    return Status::OK();
  }
  if (action == "stats") {
    const core::QueryCacheStats stats = engine->result_cache_stats();
    out << StringPrintf(
        "result cache: entries=%zu bytes=%zu hits=%zu misses=%zu "
        "evictions=%zu hit-rate=%.1f%% epoch=%llu\n",
        stats.entries, stats.bytes, stats.hits, stats.misses,
        stats.evictions, 100.0 * stats.HitRate(),
        static_cast<unsigned long long>(engine->config_epoch()));
    return Status::OK();
  }
  return Status::InvalidArgument("cache expects 'on', 'off', or 'stats'");
}

Status CommandInterpreter::CmdSql(const std::string& sql, std::ostream& out) {
  URBANE_ASSIGN_OR_RETURN(core::ParsedQuery parsed,
                          core::ParseQuerySql(sql));
  URBANE_ASSIGN_OR_RETURN(const data::RegionSet* regions,
                          manager_.RegionLayer(parsed.regions_layer));
  WallTimer timer;
  URBANE_ASSIGN_OR_RETURN(DatasetManager::StatementResult answer,
                          manager_.ExecuteStatement(std::move(parsed),
                                                    method_));
  const double seconds = timer.ElapsedSeconds();
  const core::QueryResult& result = answer.result;

  // Top regions by value.
  std::vector<std::size_t> order(result.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const double va = std::isfinite(result.values[a])
                                           ? result.values[a]
                                           : -1e300;
                     const double vb = std::isfinite(result.values[b])
                                           ? result.values[b]
                                           : -1e300;
                     return va > vb;
                   });
  std::uint64_t total = 0;
  for (const auto c : result.counts) total += c;
  out << result.size() << " groups, " << total << " matching points, "
      << FormatDuration(seconds) << " ("
      << core::ExecutionMethodToString(method_);
  if (answer.watermark.has_value()) {
    out << ", as of watermark " << *answer.watermark;
  }
  out << ")\n";
  const std::size_t top = std::min<std::size_t>(10, order.size());
  for (std::size_t k = 0; k < top; ++k) {
    const std::size_t r = order[k];
    out << "  " << (*regions)[r].name << "  "
        << StringPrintf("%.4g", result.values[r]);
    if (!result.error_bounds.empty()) {
      out << StringPrintf("  (err<=%.3g)", result.error_bounds[r]);
    }
    out << "\n";
  }
  return Status::OK();
}

Status CommandInterpreter::CmdExplain(const std::string& args,
                                      std::ostream& out) {
  bool as_json = false;
  std::string sql = args;
  {
    const std::vector<std::string> tokens = Tokenize(args);
    if (!tokens.empty() && ToLowerAscii(tokens[0]) == "json") {
      as_json = true;
      sql = std::string(TrimWhitespace(args.substr(tokens[0].size())));
    }
  }
  if (sql.empty()) {
    return Status::InvalidArgument("usage: explain analyze [json] <sql>");
  }
  obs::QueryProfile profile;
  profile.context = obs::GenerateTraceContext();
  URBANE_ASSIGN_OR_RETURN(core::QueryResult result,
                          manager_.ExecuteSql(sql, method_, &profile));
  // Retained like a server-side profile, so `server start` + GET
  // /v1/profiles/<trace_id> can fetch what the shell just measured.
  obs::ProfileStore::Global().Insert(profile);
  if (as_json) {
    out << profile.ToJson().Dump(2) << "\n";
    return Status::OK();
  }
  std::uint64_t total = 0;
  for (const auto c : result.counts) total += c;
  out << profile.ToTable();
  out << result.size() << " groups, " << total << " matching points\n";
  return Status::OK();
}

Status CommandInterpreter::CmdMap(const std::vector<std::string>& args,
                                  std::ostream& out) {
  if (args.size() < 4) {
    return Status::InvalidArgument(
        "usage: map <points> <regions> <out.ppm> [title...]");
  }
  URBANE_ASSIGN_OR_RETURN(core::SpatialAggregation * engine,
                          manager_.Engine(args[1], args[2]));
  URBANE_ASSIGN_OR_RETURN(const data::RegionSet* regions,
                          manager_.RegionLayer(args[2]));
  core::AggregationQuery query;
  query.aggregate = core::AggregateSpec::Count();
  URBANE_ASSIGN_OR_RETURN(core::QueryResult result,
                          engine->Execute(query, method_));
  MapViewOptions options;
  for (std::size_t i = 4; i < args.size(); ++i) {
    if (!options.title.empty()) options.title += " ";
    options.title += args[i];
  }
  URBANE_ASSIGN_OR_RETURN(MapRender render,
                          RenderChoroplethToFile(*regions, result, args[3],
                                                 options));
  out << "wrote " << args[3] << " (" << render.image.width() << "x"
      << render.image.height() << ", scale " << render.legend_lo << ".."
      << render.legend_hi << ")\n";
  return Status::OK();
}

Status CommandInterpreter::CmdStats(const std::vector<std::string>& args,
                                    std::ostream& out) {
  if (args.size() >= 2) {
    const std::string action = ToLowerAscii(args[1]);
    if (action == "on") {
      obs::SetMetricsEnabled(true);
      out << "metrics on\n";
      return Status::OK();
    }
    if (action == "off") {
      obs::SetMetricsEnabled(false);
      out << "metrics off\n";
      return Status::OK();
    }
    if (action == "reset") {
      obs::MetricsRegistry::Global().Reset();
      out << "metrics reset\n";
      return Status::OK();
    }
    if (action == "json") {
      out << obs::MetricsRegistry::Global().ToJson().Dump(2) << "\n";
      return Status::OK();
    }
    return Status::InvalidArgument("usage: stats [on|off|reset|json]");
  }
  if (!obs::MetricsEnabled()) {
    out << "metrics are off ('stats on' to enable)\n";
  }
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  if (snapshot.counters.empty() && snapshot.gauges.empty() &&
      snapshot.histograms.empty()) {
    out << "no metrics recorded\n";
    return Status::OK();
  }
  for (const obs::CounterSnapshot& counter : snapshot.counters) {
    out << StringPrintf("%-40s %llu\n", counter.name.c_str(),
                        static_cast<unsigned long long>(counter.value));
  }
  for (const obs::GaugeSnapshot& gauge : snapshot.gauges) {
    out << StringPrintf("%-40s %.6g\n", gauge.name.c_str(), gauge.value);
  }
  for (const obs::HistogramSnapshot& histogram : snapshot.histograms) {
    out << StringPrintf(
        "%-40s n=%llu mean=%s min=%s max=%s\n", histogram.name.c_str(),
        static_cast<unsigned long long>(histogram.count),
        FormatDuration(histogram.Mean()).c_str(),
        FormatDuration(histogram.min).c_str(),
        FormatDuration(histogram.max).c_str());
  }
  return Status::OK();
}

Status CommandInterpreter::CmdServe(const std::vector<std::string>& args,
                                    std::ostream& out) {
  std::string action =
      args.size() >= 2 ? ToLowerAscii(args[1]) : std::string("start");
  // "serve sink <path>" is shorthand for "serve start sink <path>".
  std::size_t i = 2;
  if (action == "sink") {
    action = "start";
    i = 1;
  }
  if (action == "stop") {
    if (exporter_ == nullptr) {
      out << "exporter is not running\n";
      return Status::OK();
    }
    exporter_->Stop();
    exporter_.reset();
    out << "exporter stopped\n";
    return Status::OK();
  }
  if (action == "status") {
    if (exporter_ != nullptr && exporter_->running()) {
      const std::string& sink = exporter_->options().sink_path;
      out << "exporter running (sink: " << (sink.empty() ? "none" : sink)
          << ")\n";
    } else {
      out << "exporter is not running\n";
    }
    return Status::OK();
  }
  if (action != "start") {
    return Status::InvalidArgument(
        "usage: serve [[start] [sink <path>]|stop|status]");
  }
  if (exporter_ != nullptr && exporter_->running()) {
    return Status::FailedPrecondition(
        "exporter already running ('serve stop' first)");
  }
  obs::TelemetryExporterOptions options;
  if (i < args.size() && ToLowerAscii(args[i]) == "sink") {
    if (i + 1 >= args.size()) {
      return Status::InvalidArgument("'sink' expects a file path");
    }
    options.sink_path = args[i + 1];
    i += 2;
  }
  if (i < args.size()) {
    return Status::InvalidArgument("unexpected argument: " + args[i]);
  }
  // Exported telemetry from an empty registry is useless, so serving
  // implies the metrics + journal switches.
  obs::SetMetricsEnabled(true);
  obs::SetJournalEnabled(true);
  exporter_ = std::make_unique<obs::TelemetryExporter>(options);
  if (Status status = exporter_->Start(); !status.ok()) {
    exporter_.reset();
    return status;
  }
  out << "exporter running (metrics + journal on; scrape /metrics from "
         "the query server: server start)\n";
  if (!options.sink_path.empty()) {
    out << "telemetry sink: " << options.sink_path << "\n";
  }
  return Status::OK();
}

Status CommandInterpreter::CmdServer(const std::vector<std::string>& args,
                                     std::ostream& out) {
  std::string action =
      args.size() >= 2 ? ToLowerAscii(args[1]) : std::string("start");
  std::size_t i = 2;
  // "server 9090" is shorthand for "server start 9090".
  if (action != "start" && action != "stop" && action != "status" &&
      !action.empty() &&
      action.find_first_not_of("0123456789") == std::string::npos) {
    action = "start";
    i = 1;
  }
  if (action == "stop") {
    if (server_ == nullptr) {
      out << "query server is not running\n";
      return Status::OK();
    }
    server_->Stop();
    out << "query server stopped (served "
        << server_->served() << " requests, shed "
        << server_->rejected_overload() << " on overload)\n";
    server_.reset();
    return Status::OK();
  }
  if (action == "status") {
    if (server_ != nullptr && server_->running()) {
      out << "query server listening on 127.0.0.1:" << server_->port()
          << " (accepted " << server_->accepted() << ", served "
          << server_->served() << ", overload 429s "
          << server_->rejected_overload() << ")\n";
    } else {
      out << "query server is not running\n";
    }
    return Status::OK();
  }
  if (action != "start") {
    return Status::InvalidArgument(
        "usage: server [[start] [port] [workers N] [queue N] "
        "[timeout MS] [shards N]|stop|status]");
  }
  if (server_ != nullptr && server_->running()) {
    return Status::FailedPrecondition(
        "query server already running ('server stop' first)");
  }
  server::QueryServerOptions options;
  if (i < args.size() &&
      args[i].find_first_not_of("0123456789") == std::string::npos) {
    URBANE_ASSIGN_OR_RETURN(std::int64_t port, ParseInt64(args[i]));
    if (port < 0 || port > 65535) {
      return Status::InvalidArgument("port out of range: " + args[i]);
    }
    options.port = static_cast<std::uint16_t>(port);
    ++i;
  }
  while (i < args.size()) {
    const std::string key = ToLowerAscii(args[i]);
    if (i + 1 >= args.size()) {
      return Status::InvalidArgument("'" + key + "' expects a value");
    }
    URBANE_ASSIGN_OR_RETURN(std::int64_t value, ParseInt64(args[i + 1]));
    if (key == "workers") {
      options.worker_threads = static_cast<int>(value);
    } else if (key == "queue") {
      options.max_queue_depth = static_cast<int>(value);
    } else if (key == "timeout") {
      options.default_timeout_ms = static_cast<int>(value);
    } else if (key == "shards") {
      if (value < 0) {
        return Status::InvalidArgument("'shards' must be >= 0");
      }
      manager_.set_engine_shards(static_cast<std::size_t>(value));
    } else {
      return Status::InvalidArgument("unexpected argument: " + args[i]);
    }
    i += 2;
  }
  // A query service without telemetry is flying blind; serving implies
  // the metrics + journal switches (same policy as `serve`).
  obs::SetMetricsEnabled(true);
  obs::SetJournalEnabled(true);
  if (backend_ == nullptr) {
    backend_ = std::make_unique<DatasetManagerBackend>(&manager_);
  }
  server_ = std::make_unique<server::QueryServer>(backend_.get(), options);
  if (Status status = server_->Start(); !status.ok()) {
    server_.reset();
    return status;
  }
  out << "query server listening on 127.0.0.1:" << server_->port() << " ("
      << options.worker_threads << " workers, queue "
      << options.max_queue_depth;
  if (manager_.engine_shards() > 1) {
    out << ", " << manager_.engine_shards() << " shards";
  }
  out << "; try: curl -d '{\"sql\": "
      << "\"SELECT COUNT(*) FROM taxi, nbhd\"}' http://127.0.0.1:"
      << server_->port() << "/v1/query)\n";
  return Status::OK();
}

Status CommandInterpreter::CmdEvents(const std::vector<std::string>& args,
                                     std::ostream& out) {
  obs::EventJournal& journal = obs::EventJournal::Global();
  const std::string action =
      args.size() >= 2 ? ToLowerAscii(args[1]) : std::string("drain");
  if (action == "on") {
    obs::SetJournalEnabled(true);
    out << "event journal on\n";
    return Status::OK();
  }
  if (action == "off") {
    obs::SetJournalEnabled(false);
    out << "event journal off\n";
    return Status::OK();
  }
  if (action == "reset") {
    journal.Reset();
    out << "event journal reset\n";
    return Status::OK();
  }
  if (action == "status") {
    out << StringPrintf(
        "event journal: %s, capacity=%zu published=%llu dropped=%llu\n",
        obs::JournalEnabled() ? "on" : "off", journal.capacity(),
        static_cast<unsigned long long>(journal.published()),
        static_cast<unsigned long long>(journal.dropped()));
    return Status::OK();
  }
  if (action != "drain") {
    return Status::InvalidArgument(
        "usage: events [drain|status|on|off|reset]");
  }
  if (!obs::JournalEnabled() && journal.published() == 0) {
    out << "event journal is off ('events on' to enable)\n";
    return Status::OK();
  }
  std::vector<obs::Event> events;
  journal.Drain(&events);
  if (events.empty()) {
    out << "no events\n";
    return Status::OK();
  }
  for (const obs::Event& event : events) {
    out << StringPrintf("%8llu  %-14s",
                        static_cast<unsigned long long>(event.sequence),
                        obs::EventKindName(event.kind));
    if (event.kind == obs::EventKind::kQueryStart ||
        event.kind == obs::EventKind::kQueryFinish ||
        event.kind == obs::EventKind::kPlannerChoose ||
        event.kind == obs::EventKind::kError) {
      out << "  method=" << core::ExecutionMethodToString(
                                static_cast<core::ExecutionMethod>(
                                    event.method));
    }
    if (event.fingerprint != 0) {
      out << StringPrintf(
          "  fp=%016llx",
          static_cast<unsigned long long>(event.fingerprint));
    }
    if (event.context != 0) {
      out << StringPrintf("  conn=%llu",
                          static_cast<unsigned long long>(event.context));
    }
    if (event.kind == obs::EventKind::kQueryFinish ||
        event.kind == obs::EventKind::kSessionFrame) {
      out << "  wall=" << FormatDuration(event.value);
    } else if (event.kind == obs::EventKind::kCacheEvict) {
      out << StringPrintf("  bytes=%.0f", event.value);
    } else if (event.kind == obs::EventKind::kPlannerChoose) {
      out << StringPrintf("  cost=%.3g", event.value);
    }
    if ((event.flags & obs::kEventCacheHit) != 0) out << "  cache-hit";
    if ((event.flags & obs::kEventError) != 0) out << "  error";
    out << "\n";
  }
  out << events.size() << " events ("
      << static_cast<unsigned long long>(journal.dropped()) << " dropped)\n";
  return Status::OK();
}

Status CommandInterpreter::CmdSlowlog(const std::vector<std::string>& args,
                                      std::ostream& out) {
  obs::SlowQueryLog& recorder = obs::SlowQueryLog::Global();
  const std::string action =
      args.size() >= 2 ? ToLowerAscii(args[1]) : std::string("show");
  if (action == "arm") {
    obs::SlowQueryLogOptions options = recorder.options();
    if (args.size() >= 3 && ToLowerAscii(args[2]) == "p99") {
      options.p99_multiplier = 3.0;
      if (args.size() >= 4) {
        URBANE_ASSIGN_OR_RETURN(std::int64_t mult, ParseInt64(args[3]));
        if (mult <= 0) {
          return Status::InvalidArgument("multiplier must be positive");
        }
        options.p99_multiplier = static_cast<double>(mult);
      }
      // The rolling threshold needs the latency histogram populated.
      obs::SetMetricsEnabled(true);
    } else {
      options.p99_multiplier = 0.0;
      if (args.size() >= 3) {
        URBANE_ASSIGN_OR_RETURN(std::int64_t ms, ParseInt64(args[2]));
        if (ms < 0) {
          return Status::InvalidArgument("threshold must be >= 0");
        }
        options.threshold_seconds = static_cast<double>(ms) / 1000.0;
      }
    }
    recorder.SetOptions(options);
    recorder.Arm();
    if (options.p99_multiplier > 0.0) {
      out << StringPrintf(
          "slow-query recorder armed (threshold = %.0fx rolling p99 of "
          "%s)\n",
          options.p99_multiplier, options.histogram_name.c_str());
    } else {
      out << StringPrintf("slow-query recorder armed (threshold = %s)\n",
                          FormatDuration(options.threshold_seconds).c_str());
    }
    return Status::OK();
  }
  if (action == "disarm") {
    recorder.Disarm();
    out << "slow-query recorder disarmed\n";
    return Status::OK();
  }
  if (action == "clear") {
    recorder.Clear();
    out << "slow-query log cleared\n";
    return Status::OK();
  }
  if (action == "json") {
    out << recorder.ToJson().Dump(2) << "\n";
    return Status::OK();
  }
  if (action != "show") {
    return Status::InvalidArgument(
        "usage: slowlog [arm [threshold-ms]|arm p99 [multiplier]|disarm|"
        "clear|json]");
  }
  const std::vector<obs::SlowQueryRecord> records = recorder.Records();
  out << StringPrintf(
      "slow-query recorder: %s, threshold=%s, captured=%llu, retained=%zu\n",
      recorder.armed() ? "armed" : "disarmed",
      FormatDuration(recorder.ThresholdSeconds()).c_str(),
      static_cast<unsigned long long>(recorder.captured()), records.size());
  for (const obs::SlowQueryRecord& record : records) {
    out << StringPrintf(
        "  #%llu  %s  wall=%s  fp=%016llx  %s\n",
        static_cast<unsigned long long>(record.sequence),
        record.method.c_str(), FormatDuration(record.wall_seconds).c_str(),
        static_cast<unsigned long long>(record.fingerprint),
        record.query.c_str());
  }
  return Status::OK();
}

void CommandInterpreter::CmdList(std::ostream& out) {
  out << "point data sets:";
  for (const std::string& name : manager_.PointDatasetNames()) {
    const auto table = manager_.PointDataset(name);
    out << " " << name << "(" << (*table)->size() << ")";
  }
  const std::vector<std::string> live = manager_.LiveDatasetNames();
  if (!live.empty()) {
    out << "\nlive data sets:";
    for (const std::string& name : live) {
      const auto stats = manager_.IngestStatsFor(name);
      out << " " << name << "("
          << (stats.ok() ? stats->watermark : 0) << ")";
    }
  }
  out << "\nregion layers:";
  for (const std::string& name : manager_.RegionLayerNames()) {
    const auto regions = manager_.RegionLayer(name);
    out << " " << name << "(" << (*regions)->size() << ")";
  }
  out << "\n";
}

}  // namespace urbane::app
