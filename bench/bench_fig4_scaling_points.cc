// F4 — latency vs number of points (Raster Join evaluation): COUNT over the
// neighborhood layer as the point set grows. Expected shape: the scan
// baseline grows linearly with a large constant (R-tree probe + exact test
// per point); the index join is cheaper per query but still touches every
// boundary-cell point; both raster joins grow with a much smaller constant
// (one splat per point + canvas sweep), winning by an order of magnitude at
// the top of the sweep.
//
// Pass --grid-sweep to additionally ablate the index join's cell size,
// --threads-sweep to run the bounded raster join at the largest scale
// sharded over 1/2/4/8 row-range shards, each count on a pool of as many
// workers (URBANE_BENCH_THREADS sets the shard count of the main sweep;
// default 1 = unsharded), or --obs-overhead to
// measure the observability subsystem's cost on the hot splat path
// (bounded raster with everything off vs metrics on plus an attached query
// profile; the default sweep always runs with obs disabled so baselines
// stay comparable).
// Pass --store to run the out-of-core variant: each scale is converted to
// a UST1 block store and opened the way CLI `open` and the query server
// open one — memory-mapped, zone maps attached to the facade — then a full
// COUNT and a centre-quarter-window COUNT run through the facade's scan;
// the table reports the window's blocks scanned vs pruned so bench_report
// can derive the pruning ratio.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench/harness.h"
#include "core/quadtree_join.h"
#include "core/spatial_aggregation.h"
#include "data/region_generator.h"
#include "data/taxi_generator.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "shard/sharded_executor.h"
#include "store/store_reader.h"
#include "store/store_writer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace urbane;
  const bool grid_sweep =
      argc > 1 && std::strcmp(argv[1], "--grid-sweep") == 0;
  const bool threads_sweep =
      argc > 1 && std::strcmp(argv[1], "--threads-sweep") == 0;
  const bool obs_overhead =
      argc > 1 && std::strcmp(argv[1], "--obs-overhead") == 0;
  const bool store_mode = argc > 1 && std::strcmp(argv[1], "--store") == 0;
  bench::PrintHeader(
      "Figure 4: latency vs point count",
      "COUNT per neighborhood; per-query latency (prep excluded, reported "
      "separately in Table 2).");

  const std::size_t bench_shards = bench::BenchThreads();

  const data::RegionSet neighborhoods = data::GenerateNeighborhoods();
  const std::size_t sweep[] = {
      bench::ScaledCount(50'000), bench::ScaledCount(125'000),
      bench::ScaledCount(250'000), bench::ScaledCount(500'000),
      bench::ScaledCount(1'000'000), bench::ScaledCount(2'000'000)};

  bench::ResultTable table(
      "fig4_scaling_points",
      {"points", "scan", "index", "quadtree", "raster", "accurate",
       "speedup(acc/scan)"});

  for (const std::size_t num_points : sweep) {
    data::TaxiGeneratorOptions options;
    options.num_trips = num_points;
    const data::PointTable taxis = data::GenerateTaxiTrips(options);
    core::SpatialAggregation engine(taxis, neighborhoods);
    engine.set_num_shards(bench_shards);
    core::AggregationQuery query;
    query.aggregate = core::AggregateSpec::Count();

    double seconds[4] = {0, 0, 0, 0};
    const core::ExecutionMethod methods[] = {
        core::ExecutionMethod::kScan, core::ExecutionMethod::kIndexJoin,
        core::ExecutionMethod::kBoundedRaster,
        core::ExecutionMethod::kAccurateRaster};
    for (int m = 0; m < 4; ++m) {
      seconds[m] = bench::MeasureSeconds(
          [&] { (void)engine.Execute(query, methods[m]); });
    }
    auto quadtree = core::QuadtreeJoin::Create(taxis, neighborhoods);
    core::AggregationQuery direct = query;
    direct.points = &taxis;
    direct.regions = &neighborhoods;
    const double quadtree_seconds =
        quadtree.ok() ? bench::MeasureSeconds(
                            [&] { (void)(*quadtree)->Execute(direct); })
                      : 0.0;
    table.AddRow({bench::ResultTable::Cell("%zu", num_points),
                  FormatDuration(seconds[0]), FormatDuration(seconds[1]),
                  FormatDuration(quadtree_seconds),
                  FormatDuration(seconds[2]), FormatDuration(seconds[3]),
                  bench::ResultTable::Cell("%.1fx",
                                           seconds[0] / seconds[3])});
  }
  table.Finish();

  if (store_mode) {
    std::printf("out-of-core block store (mmap view + zone maps, scan):\n");
    // Run with the registry on so the store.blocks_pruned / rows_pruned
    // counters land in the fig4_store.json snapshot and bench_report can
    // track the pruning ratio in BENCH_TRAJECTORY.json.
    const bool metrics_were_enabled = obs::MetricsEnabled();
    obs::SetMetricsEnabled(true);
    bench::ResultTable store_table(
        "fig4_store",
        {"points", "raw-MB", "full-scan", "window-scan", "blocks-total",
         "blocks-scanned", "blocks-pruned", "pruned-%"});
    for (const std::size_t num_points : sweep) {
      data::TaxiGeneratorOptions options;
      options.num_trips = num_points;
      const data::PointTable taxis = data::GenerateTaxiTrips(options);
      const std::string path = "/tmp/urbane_fig4_" +
                               std::to_string(::getpid()) + ".ust";
      // The same block count at every scale keeps the pruning ratio
      // comparable across the sweep and gives the smallest scale blocks
      // to prune.
      store::StoreWriterOptions write_options;
      write_options.block_rows = std::max<std::size_t>(1, num_points / 64);
      auto written = store::WritePointStore(taxis, path, write_options);
      if (!written.ok()) {
        std::printf("  store write failed: %s\n",
                    written.status().ToString().c_str());
        break;
      }
      auto reader = store::StoreReader::Open(path);
      ::unlink(path.c_str());  // an open reader keeps the rows readable
      if (!reader.ok()) {
        std::printf("  store open failed: %s\n",
                    reader.status().ToString().c_str());
        break;
      }
      auto view = reader->MappedTable();
      if (!view.ok()) {
        std::printf("  store map failed: %s\n",
                    view.status().ToString().c_str());
        break;
      }
      const std::uint64_t row_bytes =
          16 + 4 * reader->schema().attribute_count();
      const std::uint64_t raw_bytes = reader->row_count() * row_bytes;
      core::SpatialAggregation store_engine(*view, neighborhoods);
      store_engine.AttachZoneMaps(&reader->zone_maps());
      store_engine.set_num_shards(bench_shards);

      core::AggregationQuery full;
      full.aggregate = core::AggregateSpec::Count();
      const double full_seconds = bench::MeasureSeconds([&] {
        (void)store_engine.Execute(full, core::ExecutionMethod::kScan);
      });

      // Selective viewport: the center quarter of the data's extent. Blocks
      // are Morton-clustered, so most fall entirely outside the window and
      // are pruned before the scan visits a row of them.
      const geometry::BoundingBox bounds = reader->zone_maps().Bounds();
      obs::QueryProfile window_profile;
      core::AggregationQuery window = full;
      window.profile = &window_profile;
      window.filter.spatial_window = geometry::BoundingBox(
          bounds.min_x + bounds.Width() * 0.375,
          bounds.min_y + bounds.Height() * 0.375,
          bounds.max_x - bounds.Width() * 0.375,
          bounds.max_y - bounds.Height() * 0.375);
      const double window_seconds = bench::MeasureSeconds([&] {
        (void)store_engine.Execute(window, core::ExecutionMethod::kScan);
      });
      const obs::QueryProfile& wp = window_profile;
      store_table.AddRow(
          {bench::ResultTable::Cell("%zu", num_points),
           bench::ResultTable::Cell("%.1f", raw_bytes / (1024.0 * 1024.0)),
           FormatDuration(full_seconds), FormatDuration(window_seconds),
           bench::ResultTable::Cell("%llu", static_cast<unsigned long long>(
                                                wp.blocks_total)),
           bench::ResultTable::Cell(
               "%llu", static_cast<unsigned long long>(wp.blocks_total -
                                                       wp.blocks_pruned)),
           bench::ResultTable::Cell("%llu", static_cast<unsigned long long>(
                                                wp.blocks_pruned)),
           bench::ResultTable::Cell(
               "%.1f%%", wp.blocks_total > 0
                             ? 100.0 * wp.blocks_pruned / wp.blocks_total
                             : 0.0)});
    }
    store_table.Finish();
    obs::SetMetricsEnabled(metrics_were_enabled);
  }

  if (grid_sweep) {
    std::printf("grid-cell-size ablation (index join, %zu points):\n",
                sweep[3]);
    data::TaxiGeneratorOptions options;
    options.num_trips = sweep[3];
    const data::PointTable taxis = data::GenerateTaxiTrips(options);
    bench::ResultTable ablation("fig4_grid_sweep",
                                {"points-per-cell", "build", "query"});
    for (const double target : {16.0, 64.0, 256.0, 1024.0}) {
      core::IndexJoinOptions index_options;
      index_options.target_points_per_cell = target;
      WallTimer build;
      auto join = core::IndexJoin::Create(taxis, neighborhoods,
                                          index_options);
      const double build_seconds = build.ElapsedSeconds();
      if (!join.ok()) continue;
      core::AggregationQuery query;
      query.points = &taxis;
      query.regions = &neighborhoods;
      const double q = bench::MeasureSeconds(
          [&] { (void)(*join)->Execute(query); });
      ablation.AddRow({bench::ResultTable::Cell("%.0f", target),
                       FormatDuration(build_seconds), FormatDuration(q)});
    }
    ablation.Finish();
  }

  if (threads_sweep) {
    const std::size_t num_points = sweep[5];
    std::printf(
        "threads ablation (sharded bounded raster join, %zu points):\n",
        num_points);
    data::TaxiGeneratorOptions options;
    options.num_trips = num_points;
    const data::PointTable taxis = data::GenerateTaxiTrips(options);
    core::AggregationQuery query;
    query.aggregate = core::AggregateSpec::Count();
    query.points = &taxis;
    query.regions = &neighborhoods;
    bench::ResultTable ablation("fig4_threads_sweep",
                                {"workers", "raster", "speedup(vs 1)"});
    double serial_seconds = 0.0;
    for (const std::size_t workers : {1, 2, 4, 8}) {
      // M = workers shards on a pool of as many workers: each shard splats
      // its rows and sweeps the whole canvas serially.
      ThreadPool sweep_pool(workers);
      shard::ShardedExecutorOptions shard_options;
      shard_options.num_shards = workers;
      shard_options.pool = &sweep_pool;
      auto join = shard::ShardedExecutor::Create(
          taxis, neighborhoods, core::ExecutionMethod::kBoundedRaster,
          shard_options);
      if (!join.ok()) continue;
      const double q = bench::MeasureSeconds(
          [&] { (void)(*join)->Execute(query); });
      if (workers == 1) serial_seconds = q;
      ablation.AddRow({bench::ResultTable::Cell("%zu", workers),
                       FormatDuration(q),
                       bench::ResultTable::Cell("%.2fx",
                                                serial_seconds / q)});
    }
    ablation.Finish();
  }

  if (obs_overhead) {
    const std::size_t num_points = sweep[4];
    std::printf("observability overhead (bounded raster join, %zu points):\n",
                num_points);
    data::TaxiGeneratorOptions options;
    options.num_trips = num_points;
    const data::PointTable taxis = data::GenerateTaxiTrips(options);
    core::SpatialAggregation engine(taxis, neighborhoods);
    engine.set_num_shards(bench_shards);
    core::AggregationQuery query;
    query.aggregate = core::AggregateSpec::Count();
    bench::ResultTable ablation("fig4_obs_overhead",
                                {"obs", "raster", "overhead(vs off)"});
    double off_seconds = 0.0;
    for (const bool enabled : {false, true}) {
      obs::SetMetricsEnabled(enabled);
      obs::QueryProfile profile;
      core::AggregationQuery observed = query;
      observed.profile = enabled ? &profile : nullptr;
      const double q = bench::MeasureSeconds([&] {
        profile = obs::QueryProfile();  // one fresh profile per request
        (void)engine.Execute(observed, core::ExecutionMethod::kBoundedRaster);
      });
      if (!enabled) off_seconds = q;
      ablation.AddRow(
          {enabled ? "on" : "off", FormatDuration(q),
           bench::ResultTable::Cell(
               "%+.2f%%", off_seconds > 0.0
                              ? 100.0 * (q - off_seconds) / off_seconds
                              : 0.0)});
    }
    obs::SetMetricsEnabled(false);
    ablation.Finish();
  }
  return 0;
}
