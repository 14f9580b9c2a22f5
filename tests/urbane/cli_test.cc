#include "urbane/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/slow_query_log.h"

namespace urbane::app {
namespace {

std::string RunCommand(CommandInterpreter& cli, const std::string& line,
                bool* keep_going = nullptr) {
  std::ostringstream out;
  const bool cont = cli.Execute(line, out);
  if (keep_going != nullptr) {
    *keep_going = cont;
  }
  return out.str();
}

TEST(CliTest, HelpAndUnknownCommand) {
  CommandInterpreter cli;
  EXPECT_NE(RunCommand(cli, "help").find("commands:"), std::string::npos);
  EXPECT_NE(RunCommand(cli, "frobnicate").find("error"), std::string::npos);
}

TEST(CliTest, QuitStopsSession) {
  CommandInterpreter cli;
  bool keep_going = true;
  RunCommand(cli, "quit", &keep_going);
  EXPECT_FALSE(keep_going);
}

TEST(CliTest, BlankAndCommentLinesIgnored) {
  CommandInterpreter cli;
  bool keep_going = false;
  EXPECT_EQ(RunCommand(cli, "", &keep_going), "");
  EXPECT_TRUE(keep_going);
  EXPECT_EQ(RunCommand(cli, "  # comment", &keep_going), "");
  EXPECT_TRUE(keep_going);
}

TEST(CliTest, GenListSqlFlow) {
  CommandInterpreter cli;
  EXPECT_NE(RunCommand(cli, "gen taxi t 5000 7").find("generated 't'"),
            std::string::npos);
  EXPECT_NE(RunCommand(cli, "gen regions h neighborhoods").find("generated 'h'"),
            std::string::npos);
  const std::string listing = RunCommand(cli, "list");
  EXPECT_NE(listing.find("t(5000)"), std::string::npos);
  EXPECT_NE(listing.find("h(256)"), std::string::npos);
  const std::string result = RunCommand(cli, "sql SELECT COUNT(*) FROM t, h");
  EXPECT_NE(result.find("256 groups"), std::string::npos);
  EXPECT_NE(result.find("5000 matching points"), std::string::npos);
}

TEST(CliTest, CacheCommandFlow) {
  CommandInterpreter cli;
  RunCommand(cli, "gen taxi t 2000 7");
  RunCommand(cli, "gen regions h boroughs");
  EXPECT_NE(RunCommand(cli, "cache t h on 32").find("result cache on"),
            std::string::npos);
  RunCommand(cli, "method scan");
  RunCommand(cli, "sql SELECT COUNT(*) FROM t, h");
  RunCommand(cli, "sql SELECT COUNT(*) FROM t, h");
  const std::string stats = RunCommand(cli, "cache t h stats");
  EXPECT_NE(stats.find("hits=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("entries=1"), std::string::npos) << stats;
  EXPECT_NE(RunCommand(cli, "cache t h off").find("result cache off"),
            std::string::npos);
  const std::string cleared = RunCommand(cli, "cache t h stats");
  EXPECT_NE(cleared.find("entries=0"), std::string::npos) << cleared;
  // Errors: unknown engine pair and a bad action.
  EXPECT_NE(RunCommand(cli, "cache nope h on").find("error"),
            std::string::npos);
  EXPECT_NE(RunCommand(cli, "cache t h sideways").find("error"),
            std::string::npos);
  EXPECT_NE(RunCommand(cli, "cache t h").find("error"), std::string::npos);
}

TEST(CliTest, BareSelectAccepted) {
  CommandInterpreter cli;
  RunCommand(cli, "gen taxi t 2000");
  RunCommand(cli, "gen regions h boroughs");
  const std::string result = RunCommand(cli, "SELECT COUNT(*) FROM t, h");
  EXPECT_NE(result.find("6 groups"), std::string::npos);
}

TEST(CliTest, MethodSwitching) {
  CommandInterpreter cli;
  EXPECT_NE(RunCommand(cli, "method scan").find("scan"), std::string::npos);
  EXPECT_EQ(cli.method(), core::ExecutionMethod::kScan);
  EXPECT_NE(RunCommand(cli, "method raster").find("raster"), std::string::npos);
  EXPECT_EQ(cli.method(), core::ExecutionMethod::kBoundedRaster);
  EXPECT_NE(RunCommand(cli, "method bogus").find("error"), std::string::npos);
  // The CLI holds one method: the server's "auto" is rejected.
  EXPECT_NE(RunCommand(cli, "method auto").find("error"), std::string::npos);
  EXPECT_EQ(cli.method(), core::ExecutionMethod::kBoundedRaster);
}

TEST(CliTest, RasterMethodReportsErrorBounds) {
  CommandInterpreter cli;
  RunCommand(cli, "gen taxi t 5000");
  RunCommand(cli, "gen regions h boroughs");
  RunCommand(cli, "method raster");
  const std::string result = RunCommand(cli, "sql SELECT COUNT(*) FROM t, h");
  EXPECT_NE(result.find("err<="), std::string::npos);
}

TEST(CliTest, SqlAgainstMissingDatasetFails) {
  CommandInterpreter cli;
  const std::string result = RunCommand(cli, "sql SELECT COUNT(*) FROM no, pe");
  EXPECT_NE(result.find("error"), std::string::npos);
}

TEST(CliTest, SaveAndLoadRoundTrip) {
  CommandInterpreter cli;
  RunCommand(cli, "gen taxi t 1000");
  RunCommand(cli, "gen regions h boroughs");
  const std::string points_path = ::testing::TempDir() + "/cli_points.ust";
  const std::string regions_path = ::testing::TempDir() + "/cli_regions.urg";
  EXPECT_NE(RunCommand(cli, "convert t " + points_path).find("1000 rows"),
            std::string::npos);
  EXPECT_NE(RunCommand(cli, "save regions h " + regions_path).find("saved"),
            std::string::npos);
  EXPECT_NE(RunCommand(cli, "open t2 " + points_path)
                .find("1000 rows (memory-mapped)"),
            std::string::npos);
  EXPECT_NE(RunCommand(cli, "load regions h2 " + regions_path).find("loaded 6"),
            std::string::npos);
  const std::string result = RunCommand(cli, "sql SELECT COUNT(*) FROM t2, h2");
  EXPECT_NE(result.find("1000 matching points"), std::string::npos);
  std::remove(points_path.c_str());
  std::remove(regions_path.c_str());
}

TEST(CliTest, CsvAndGeoJsonPathsSupported) {
  CommandInterpreter cli;
  RunCommand(cli, "gen taxi t 500");
  RunCommand(cli, "gen regions h boroughs");
  const std::string csv_path = ::testing::TempDir() + "/cli_points.csv";
  const std::string geojson_path = ::testing::TempDir() + "/cli_regions.geojson";
  RunCommand(cli, "save points t " + csv_path);
  RunCommand(cli, "save regions h " + geojson_path);
  EXPECT_NE(RunCommand(cli, "load points tc " + csv_path).find("loaded 500"),
            std::string::npos);
  EXPECT_NE(RunCommand(cli, "load regions hg " + geojson_path).find("loaded 6"),
            std::string::npos);
  std::remove(csv_path.c_str());
  std::remove(geojson_path.c_str());
}

TEST(CliTest, MapWritesImage) {
  CommandInterpreter cli;
  RunCommand(cli, "gen taxi t 2000");
  RunCommand(cli, "gen regions h boroughs");
  const std::string path = ::testing::TempDir() + "/cli_map.ppm";
  const std::string result = RunCommand(cli, "map t h " + path + " MY TITLE");
  EXPECT_NE(result.find("wrote"), std::string::npos);
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(CliTest, WorkspaceCommands) {
  CommandInterpreter cli;
  RunCommand(cli, "gen taxi t 300");
  RunCommand(cli, "gen regions h boroughs");
  const std::string dir = ::testing::TempDir() + "/cli_workspace";
  EXPECT_NE(RunCommand(cli, "save workspace " + dir).find("saved workspace"),
            std::string::npos);
  CommandInterpreter fresh;
  const std::string loaded =
      RunCommand(fresh, "load workspace " + dir + "/urbane.workspace.json");
  EXPECT_NE(loaded.find("loaded workspace"), std::string::npos);
  EXPECT_NE(loaded.find("t(300)"), std::string::npos);
  EXPECT_NE(RunCommand(fresh, "load workspace").find("error"),
            std::string::npos);
}

TEST(CliTest, UsageErrorsReported) {
  CommandInterpreter cli;
  EXPECT_NE(RunCommand(cli, "gen taxi").find("error"), std::string::npos);
  EXPECT_NE(RunCommand(cli, "gen taxi t notanumber").find("error"),
            std::string::npos);
  EXPECT_NE(RunCommand(cli, "gen taxi t -5").find("error"), std::string::npos);
  EXPECT_NE(RunCommand(cli, "load points x").find("error"), std::string::npos);
  EXPECT_NE(RunCommand(cli, "save wat x y").find("error"), std::string::npos);
  EXPECT_NE(RunCommand(cli, "map onlyone").find("error"), std::string::npos);
  EXPECT_NE(RunCommand(cli, "gen regions r boguslayer").find("error"),
            std::string::npos);
}

TEST(CliTest, DuplicateNameRejected) {
  CommandInterpreter cli;
  RunCommand(cli, "gen taxi t 100");
  EXPECT_NE(RunCommand(cli, "gen taxi t 100").find("error"), std::string::npos);
}

TEST(CliTest, StatsJsonIncludesQuantiles) {
  CommandInterpreter cli;
  obs::MetricsRegistry::Global()
      .GetHistogram("clitest.latency_seconds", {0.01, 0.1})
      .Observe(0.05);
  const std::string json = RunCommand(cli, "stats json");
  EXPECT_NE(json.find("\"clitest.latency_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(CliTest, ServeStartStatusStopFlow) {
  CommandInterpreter cli;
  EXPECT_NE(RunCommand(cli, "serve status").find("not running"),
            std::string::npos);
  const std::string started = RunCommand(cli, "serve");
  EXPECT_NE(started.find("exporter running"), std::string::npos) << started;
  ASSERT_NE(cli.exporter(), nullptr);
  EXPECT_TRUE(cli.exporter()->running());
  // Serving implies the metrics + journal switches.
  EXPECT_TRUE(obs::MetricsEnabled());
  EXPECT_TRUE(obs::JournalEnabled());
  EXPECT_NE(RunCommand(cli, "serve status").find("exporter running"),
            std::string::npos);
  EXPECT_NE(RunCommand(cli, "serve").find("error"), std::string::npos);
  EXPECT_NE(RunCommand(cli, "serve stop").find("exporter stopped"),
            std::string::npos);
  EXPECT_NE(RunCommand(cli, "serve status").find("not running"),
            std::string::npos);
  EXPECT_NE(RunCommand(cli, "serve bogus").find("error"), std::string::npos);
  // The exporter serves no HTTP, so it takes no port.
  EXPECT_NE(RunCommand(cli, "serve 9090").find("error"), std::string::npos);

  obs::SetMetricsEnabled(false);
  obs::SetJournalEnabled(false);
  obs::MetricsRegistry::Global().Reset();
  obs::EventJournal::Global().Reset();
}

TEST(CliTest, EventsCommandFlow) {
  CommandInterpreter cli;
  obs::EventJournal::Global().Reset();
  EXPECT_NE(RunCommand(cli, "events").find("event journal is off"),
            std::string::npos);
  EXPECT_NE(RunCommand(cli, "events on").find("event journal on"),
            std::string::npos);
  EXPECT_NE(RunCommand(cli, "events status").find("event journal: on"),
            std::string::npos);

  RunCommand(cli, "gen taxi t 500");
  RunCommand(cli, "gen regions h boroughs");
  RunCommand(cli, "method scan");
  RunCommand(cli, "sql SELECT COUNT(*) FROM t, h");

  const std::string drained = RunCommand(cli, "events");
  EXPECT_NE(drained.find("query.start"), std::string::npos) << drained;
  EXPECT_NE(drained.find("query.finish"), std::string::npos) << drained;
  EXPECT_NE(drained.find("method=scan"), std::string::npos) << drained;
  EXPECT_NE(drained.find("events ("), std::string::npos) << drained;

  EXPECT_NE(RunCommand(cli, "events off").find("event journal off"),
            std::string::npos);
  EXPECT_NE(RunCommand(cli, "events reset").find("event journal reset"),
            std::string::npos);
  EXPECT_NE(RunCommand(cli, "events bogus").find("error"), std::string::npos);
}

TEST(CliTest, SlowlogArmCaptureJsonFlow) {
  CommandInterpreter cli;
  obs::SlowQueryLog::Global().Clear();
  // Threshold 0 ms: every query is a "slow" query.
  EXPECT_NE(RunCommand(cli, "slowlog arm 0").find("recorder armed"),
            std::string::npos);
  RunCommand(cli, "gen taxi t 500");
  RunCommand(cli, "gen regions h boroughs");
  RunCommand(cli, "method scan");
  RunCommand(cli, "sql SELECT COUNT(*) FROM t, h");

  const std::string show = RunCommand(cli, "slowlog");
  EXPECT_NE(show.find("slow-query recorder: armed"), std::string::npos)
      << show;
  const std::string json = RunCommand(cli, "slowlog json");
  EXPECT_NE(json.find("urbane.slowlog.v1"), std::string::npos);
  EXPECT_NE(json.find("\"method\": \"scan\""), std::string::npos) << json;

  EXPECT_NE(RunCommand(cli, "slowlog disarm").find("disarmed"),
            std::string::npos);
  EXPECT_NE(RunCommand(cli, "slowlog clear").find("cleared"),
            std::string::npos);
  EXPECT_NE(RunCommand(cli, "slowlog bogus").find("error"), std::string::npos);

  obs::SlowQueryLogOptions defaults;
  obs::SlowQueryLog::Global().SetOptions(defaults);
}

}  // namespace
}  // namespace urbane::app
