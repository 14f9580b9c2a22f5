#ifndef URBANE_URBANE_CLI_H_
#define URBANE_URBANE_CLI_H_

#include <memory>
#include <ostream>
#include <string>

#include "core/planner.h"
#include "obs/exporter.h"
#include "server/query_server.h"
#include "urbane/dataset_manager.h"
#include "urbane/server_backend.h"

namespace urbane::app {

/// Command interpreter behind the `urbane_cli` tool: a line-oriented shell
/// over the DatasetManager. One instance holds the session state (loaded
/// data sets, current execution method).
///
/// Commands (see Help()):
///   gen taxi <name> <count> [seed]     synthesize a taxi feed
///   gen 311 <name> <count> [seed]      synthesize a 311 feed
///   gen crime <name> <count> [seed]    synthesize a crime feed
///   gen regions <name> <boroughs|neighborhoods|tracts> [seed]
///   load points <name> <file.csv>
///   load regions <name> <file.geojson|file.urg>
///   save points <name> <file.csv>
///   save regions <name> <file.geojson|file.urg>
///   convert <points> <file.ust> [block-rows]
///                                      write a data set as a UST1 store
///   open <name> <file.ust>             register a store, memory-mapped
///                                      with its zone maps attached
///   save workspace <dir>               every data set as <name>.ust, every
///                                      layer as <name>.urg, plus manifest
///   load workspace <manifest.json>
///   method <scan|index|raster|accurate>
///   live <dataset> <dir> [attr...]     enable streaming ingest (layered on
///                                      a registered data set, or fresh)
///   live <dataset>                     ingest status (watermark, runs, WAL)
///   ingest <dataset> <count> [seed]    append synthetic rows to a live set
///   flush <dataset>                    seal + flush live runs to UST1 files
///   compact <dataset>                  merge a live data set's store runs
///   cache <points> <regions> on [entries]|off|stats
///   sql SELECT ...                     run a query (paper dialect)
///   explain analyze [json] SELECT ...  run + print the per-query profile
///                                      (planner, cache, pruning, passes,
///                                      shards; urbane.profile.v1 as json)
///   map <points> <regions> <out.ppm> [title...]
///   stats [on|off|reset|json]          process-wide metrics registry
///   serve [start] [sink <path>]|stop|status
///                                      telemetry exporter (JSONL metrics
///                                      sink; /metrics is served by
///                                      `server`)
///   server [start [port] [workers N] [queue N] [timeout MS]|stop|status]
///                                      HTTP/JSON query server (POST
///                                      /v1/query, GET /v1/datasets, ...)
///   events [drain|status|on|off|reset] structured event journal
///   slowlog [arm [ms]|arm p99 [mult]|disarm|clear|json]
///                                      slow-query flight recorder
///   list                               registered data sets
///   help
///   quit
class CommandInterpreter {
 public:
  CommandInterpreter() = default;

  /// Executes one command line, writing human-readable output to `out`.
  /// Returns false when the command asks the session to end ("quit").
  /// Command errors are reported to `out` and return true (keep going).
  bool Execute(const std::string& line, std::ostream& out);

  DatasetManager& manager() { return manager_; }
  core::ExecutionMethod method() const { return method_; }

  static const char* Help();

 private:
  Status Dispatch(const std::string& line, std::ostream& out, bool& quit);
  Status CmdGen(const std::vector<std::string>& args, std::ostream& out);
  Status CmdLoad(const std::vector<std::string>& args, std::ostream& out);
  Status CmdSave(const std::vector<std::string>& args, std::ostream& out);
  Status CmdConvert(const std::vector<std::string>& args, std::ostream& out);
  Status CmdOpen(const std::vector<std::string>& args, std::ostream& out);
  Status CmdMethod(const std::vector<std::string>& args, std::ostream& out);
  Status CmdLive(const std::vector<std::string>& args, std::ostream& out);
  Status CmdIngest(const std::vector<std::string>& args, std::ostream& out);
  Status CmdFlush(const std::vector<std::string>& args, std::ostream& out);
  Status CmdCompact(const std::vector<std::string>& args, std::ostream& out);
  Status CmdCache(const std::vector<std::string>& args, std::ostream& out);
  Status CmdSql(const std::string& sql, std::ostream& out);
  Status CmdExplain(const std::string& args, std::ostream& out);
  Status CmdMap(const std::vector<std::string>& args, std::ostream& out);
  Status CmdStats(const std::vector<std::string>& args, std::ostream& out);
  Status CmdServe(const std::vector<std::string>& args, std::ostream& out);
  Status CmdServer(const std::vector<std::string>& args, std::ostream& out);
  Status CmdEvents(const std::vector<std::string>& args, std::ostream& out);
  Status CmdSlowlog(const std::vector<std::string>& args, std::ostream& out);
  void CmdList(std::ostream& out);

 public:
  /// The running telemetry exporter, if `serve` started one (exposed so
  /// embedding code and tests can discover the bound port).
  const obs::TelemetryExporter* exporter() const { return exporter_.get(); }

  /// The running query server, if `server start` started one.
  const server::QueryServer* query_server() const { return server_.get(); }

 private:
  DatasetManager manager_;
  core::ExecutionMethod method_ = core::ExecutionMethod::kAccurateRaster;
  std::unique_ptr<obs::TelemetryExporter> exporter_;
  std::unique_ptr<DatasetManagerBackend> backend_;
  std::unique_ptr<server::QueryServer> server_;
};

}  // namespace urbane::app

#endif  // URBANE_URBANE_CLI_H_
