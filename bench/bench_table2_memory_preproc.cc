// T2 — memory footprint and preprocessing time per method (Raster Join
// evaluation): the raster joins need no point index — their auxiliary
// memory is the Morton splat order (O(P), built once per canvas) and the
// per-region sweep spans, and the accurate variant adds one point run per
// boundary pixel; the index baseline pays an O(P) build and O(P) memory.
#include <cstdio>

#include "bench/harness.h"
#include "core/accurate_join.h"
#include "core/index_join.h"
#include "core/raster_join.h"
#include "core/scan_join.h"
#include "data/region_generator.h"
#include "data/taxi_generator.h"
#include "util/timer.h"

int main() {
  using namespace urbane;
  bench::PrintHeader(
      "Table 2: preprocessing time and memory per executor",
      "1M-point taxi table, neighborhood layer, 1024px canvas.");

  data::TaxiGeneratorOptions options;
  options.num_trips = bench::ScaledCount(1'000'000);
  std::printf("generating %zu trips...\n\n", options.num_trips);
  const data::PointTable taxis = data::GenerateTaxiTrips(options);
  const data::RegionSet neighborhoods = data::GenerateNeighborhoods();
  core::RasterJoinOptions raster_options;
  raster_options.resolution = 1024;

  core::AggregationQuery query;
  query.points = &taxis;
  query.regions = &neighborhoods;
  query.aggregate = core::AggregateSpec::Count();

  bench::ResultTable table(
      "table2_memory_preproc",
      {"executor", "build-time", "aux-memory", "first-query", "warm-query"});
  auto add = [&](const core::SpatialAggregationExecutor& executor,
                 double build_seconds, std::size_t memory_bytes) {
    WallTimer first;
    (void)executor.Execute(query);
    const double first_seconds = first.ElapsedSeconds();
    const double warm_seconds =
        bench::MeasureSeconds([&] { (void)executor.Execute(query); });
    table.AddRow({executor.name(), FormatDuration(build_seconds),
                  bench::ResultTable::Cell(
                      "%.1fMB",
                      static_cast<double>(memory_bytes) / (1024.0 * 1024.0)),
                  FormatDuration(first_seconds),
                  FormatDuration(warm_seconds)});
  };

  // Build time is the executor's Create, timed here.
  double build_seconds[4] = {0, 0, 0, 0};
  WallTimer build;
  auto scan = core::ScanJoin::Create(taxis, neighborhoods);
  build_seconds[0] = build.ElapsedSeconds();
  build.Restart();
  auto index = core::IndexJoin::Create(taxis, neighborhoods);
  build_seconds[1] = build.ElapsedSeconds();
  build.Restart();
  auto raster =
      core::BoundedRasterJoin::Create(taxis, neighborhoods, raster_options);
  build_seconds[2] = build.ElapsedSeconds();
  build.Restart();
  auto accurate =
      core::AccurateRasterJoin::Create(taxis, neighborhoods, raster_options);
  build_seconds[3] = build.ElapsedSeconds();
  if (!scan.ok() || !index.ok() || !raster.ok() || !accurate.ok()) {
    return 1;
  }
  add(**scan, build_seconds[0], (*scan)->MemoryBytes());
  add(**index, build_seconds[1], (*index)->MemoryBytes());
  add(**raster, build_seconds[2], (*raster)->MemoryBytes());
  add(**accurate, build_seconds[3], (*accurate)->MemoryBytes());
  table.Finish();

  std::printf("base data: %.1fMB points, %.2fMB regions\n",
              static_cast<double>(taxis.MemoryBytes()) / (1024.0 * 1024.0),
              static_cast<double>(neighborhoods.MemoryBytes()) /
                  (1024.0 * 1024.0));
  return 0;
}
