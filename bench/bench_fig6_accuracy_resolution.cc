// F6 — accuracy vs raster resolution (Raster Join evaluation): the bounded
// raster join's relative error and latency as the canvas grows, with the
// accurate variant as the exact reference. Expected shape: error and its
// reported bound shrink roughly linearly in pixel size (so ~2x per
// resolution doubling); latency grows with canvas area; the accurate
// variant is exact at every resolution, paying more exact boundary tests on
// coarse canvases.
#include <cmath>
#include <cstdio>

#include "bench/harness.h"
#include "core/accurate_join.h"
#include "core/raster_join.h"
#include "core/scan_join.h"
#include "data/region_generator.h"
#include "data/taxi_generator.h"
#include "obs/profile.h"
#include "util/timer.h"

int main() {
  using namespace urbane;
  bench::PrintHeader(
      "Figure 6: accuracy vs canvas resolution",
      "Bounded raster join error / bound / latency across resolutions; "
      "accurate variant shown as the exact hybrid.");

  data::TaxiGeneratorOptions options;
  options.num_trips = bench::ScaledCount(1'000'000);
  std::printf("generating %zu trips...\n\n", options.num_trips);
  const data::PointTable taxis = data::GenerateTaxiTrips(options);
  const data::RegionSet neighborhoods = data::GenerateNeighborhoods();

  core::AggregationQuery query;
  query.points = &taxis;
  query.regions = &neighborhoods;
  query.aggregate = core::AggregateSpec::Count();

  auto scan = core::ScanJoin::Create(taxis, neighborhoods);
  if (!scan.ok()) return 1;
  const auto exact = (*scan)->Execute(query);
  if (!exact.ok()) return 1;
  double exact_total = 0.0;
  for (const double v : exact->values) exact_total += v;

  bench::ResultTable table(
      "fig6_accuracy_resolution",
      {"resolution", "epsilon(m)", "bounded-latency", "avg-rel-error",
       "max-rel-error", "bound-held", "accurate-latency", "exact-pip-tests"});

  for (const int resolution : {128, 256, 512, 1024, 2048, 4096}) {
    core::RasterJoinOptions raster_options;
    raster_options.resolution = resolution;
    auto bounded =
        core::BoundedRasterJoin::Create(taxis, neighborhoods, raster_options);
    auto accurate = core::AccurateRasterJoin::Create(taxis, neighborhoods,
                                                     raster_options);
    if (!bounded.ok() || !accurate.ok()) continue;

    core::QueryResult approx;
    const double bounded_seconds = bench::MeasureSeconds([&] {
      auto r = (*bounded)->Execute(query);
      if (r.ok()) approx = std::move(*r);
    });
    obs::QueryProfile accurate_profile;
    core::AggregationQuery profiled = query;
    profiled.profile = &accurate_profile;
    const double accurate_seconds = bench::MeasureSeconds(
        [&] { (void)(*accurate)->Execute(profiled); });

    double rel_error_sum = 0.0;
    double rel_error_max = 0.0;
    std::size_t measured = 0;
    bool bound_held = true;
    for (std::size_t r = 0; r < neighborhoods.size(); ++r) {
      const double truth = exact->values[r];
      const double err = std::fabs(approx.values[r] - truth);
      if (err > approx.error_bounds[r] + 1e-6) {
        bound_held = false;
      }
      if (truth > 0) {
        rel_error_sum += err / truth;
        rel_error_max = std::max(rel_error_max, err / truth);
        ++measured;
      }
    }
    table.AddRow(
        {bench::ResultTable::Cell("%d", resolution),
         bench::ResultTable::Cell("%.1f", (*bounded)->EpsilonWorld()),
         FormatDuration(bounded_seconds),
         bench::ResultTable::Cell(
             "%.4f%%", 100.0 * rel_error_sum /
                           std::max<std::size_t>(1, measured)),
         bench::ResultTable::Cell("%.4f%%", 100.0 * rel_error_max),
         bound_held ? "yes" : "NO",
         FormatDuration(accurate_seconds),
         bench::ResultTable::Cell(
             "%llu", static_cast<unsigned long long>(
                         accurate_profile.totals.pip_tests))});
  }
  table.Finish();
  return 0;
}
