// Telemetry tests: Prometheus text exposition, the telemetry routes the
// query server mounts, and the exporter's JSONL sink.
#include "obs/exporter.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "data/json.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/slow_query_log.h"

namespace urbane::obs {
namespace {

TEST(PrometheusTextTest, SanitizesMetricNames) {
  EXPECT_EQ(PrometheusMetricName("cache.hits"), "urbane_cache_hits");
  EXPECT_EQ(PrometheusMetricName("exec.scan.query_seconds"),
            "urbane_exec_scan_query_seconds");
  EXPECT_EQ(PrometheusMetricName("weird-name!"), "urbane_weird_name_");
}

TEST(PrometheusTextTest, EmitsCumulativeHistogramBuckets) {
  MetricsSnapshot snapshot;
  CounterSnapshot counter;
  counter.name = "cache.hits";
  counter.value = 3;
  snapshot.counters.push_back(counter);
  HistogramSnapshot histogram;
  histogram.name = "query.wall_seconds";
  histogram.bounds = {0.001, 0.01};
  histogram.buckets = {2, 3, 1};  // per-bucket, overflow last
  histogram.count = 6;
  histogram.sum = 0.25;
  snapshot.histograms.push_back(histogram);

  const std::string text = ToPrometheusText(snapshot);
  EXPECT_NE(text.find("# TYPE urbane_cache_hits counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("urbane_cache_hits 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE urbane_query_wall_seconds histogram\n"),
            std::string::npos);
  // Cumulative, not per-bucket: 2, then 2+3=5, then +Inf = count.
  EXPECT_NE(text.find("urbane_query_wall_seconds_bucket{le=\"0.001\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("urbane_query_wall_seconds_bucket{le=\"0.01\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("urbane_query_wall_seconds_bucket{le=\"+Inf\"} 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("urbane_query_wall_seconds_sum 0.25\n"),
            std::string::npos);
  EXPECT_NE(text.find("urbane_query_wall_seconds_count 6\n"),
            std::string::npos);
}

TEST(TelemetryExporterTest, HandleRequestRoutesWithoutStarting) {
  std::string content_type;
  std::string body;
  ASSERT_TRUE(TelemetryEndpoint("/metrics", &content_type, &body));
  EXPECT_EQ(content_type, "text/plain; version=0.0.4");
  // /metrics refreshes the process gauges on every scrape.
  EXPECT_NE(body.find("urbane_process_uptime_seconds"), std::string::npos);

  ASSERT_TRUE(TelemetryEndpoint("/healthz", &content_type, &body));
  EXPECT_EQ(body, "ok\n");

  EXPECT_FALSE(TelemetryEndpoint("/nope", &content_type, &body));
  // Query strings are ignored when routing.
  EXPECT_TRUE(TelemetryEndpoint("/healthz?verbose=1", &content_type, &body));
}

TEST(TelemetryExporterTest, SlowQueryAppearsInSlowlogEndpoint) {
  SlowQueryLog& recorder = SlowQueryLog::Global();
  SlowQueryLogOptions recorder_options;
  recorder_options.threshold_seconds = 0.0;
  recorder_options.p99_multiplier = 0.0;
  recorder.SetOptions(recorder_options);
  recorder.Clear();
  recorder.MaybeRecord(0xabcdefULL, "raster", "SELECT COUNT(*)",
                       "exporter-test-plan", 1.5, nullptr);

  std::string content_type;
  std::string body;
  ASSERT_TRUE(TelemetryEndpoint("/slowlog", &content_type, &body));
  EXPECT_EQ(content_type, "application/json");

  const auto parsed = data::ParseJson(body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("schema")->AsString(), "urbane.slowlog.v1");
  const data::JsonValue* records = parsed->Find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->AsArray().size(), 1u);
  EXPECT_EQ(records->AsArray()[0].Find("plan")->AsString(),
            "exporter-test-plan");
  EXPECT_EQ(records->AsArray()[0].Find("fingerprint")->AsString(),
            "0000000000abcdef");

  recorder.SetOptions(SlowQueryLogOptions{});
  recorder.Clear();
}

TEST(TelemetryExporterTest, StopIsIdempotentAndRestartable) {
  TelemetryExporter exporter;
  ASSERT_TRUE(exporter.Start().ok());
  EXPECT_TRUE(exporter.running());
  EXPECT_FALSE(exporter.Start().ok());  // double start refused
  exporter.Stop();
  EXPECT_FALSE(exporter.running());
  exporter.Stop();  // no-op
  ASSERT_TRUE(exporter.Start().ok());  // restart
  exporter.Stop();
}

TEST(TelemetryExporterTest, SinkReceivesJsonlDeltas) {
  const std::string sink = ::testing::TempDir() + "/urbane_exporter_sink.jsonl";
  std::remove(sink.c_str());

  TelemetryExporterOptions options;
  options.sink_path = sink;
  options.flush_period_seconds = 0.05;

  MetricsRegistry::Global().GetCounter("exportertest.sink").Add(5);
  {
    TelemetryExporter exporter(options);
    ASSERT_TRUE(exporter.Start().ok());
    while (exporter.flushes() < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    exporter.Stop();
    EXPECT_GE(exporter.flushes(), 2u);
  }

  std::ifstream in(sink);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 2u);
  bool saw_sink_counter = false;
  for (const std::string& one : lines) {
    const auto parsed = data::ParseJson(one);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << one;
    EXPECT_EQ(parsed->Find("schema")->AsString(), "urbane.telemetry.v1");
    EXPECT_GE(parsed->Find("uptime_seconds")->AsNumber(), 0.0);
    const data::JsonValue* delta = parsed->Find("delta");
    ASSERT_NE(delta, nullptr);
    EXPECT_EQ(delta->Find("schema")->AsString(), "urbane.metrics.v1");
    if (one.find("exportertest.sink") != std::string::npos) {
      saw_sink_counter = true;
    }
  }
  // The first flush (the delta baseline) carries the pre-Start increment.
  EXPECT_TRUE(saw_sink_counter);
  std::remove(sink.c_str());
}

}  // namespace
}  // namespace urbane::obs
