#include "urbane/server_backend.h"

#include <utility>

#include "core/sql.h"

namespace urbane::app {

StatusOr<server::BackendResult> DatasetManagerBackend::ExecuteSql(
    const std::string& sql, std::optional<core::ExecutionMethod> method,
    const core::QueryControl* control, obs::QueryProfile* profile) {
  URBANE_ASSIGN_OR_RETURN(core::ParsedQuery parsed, core::ParseQuerySql(sql));
  URBANE_ASSIGN_OR_RETURN(const data::RegionSet* regions,
                          manager_->RegionLayer(parsed.regions_layer));

  core::AggregationQuery query;
  query.aggregate = std::move(parsed.aggregate);
  query.filter = std::move(parsed.filter);
  query.control = control;
  query.profile = profile;

  server::BackendResult out;
  out.dataset = parsed.points_dataset;
  out.regions_layer = parsed.regions_layer;
  core::QueryResult result;
  if (manager_->IsLive(parsed.points_dataset)) {
    // Live data sets execute against a consistent as-of snapshot; the
    // watermark says exactly which one, so clients can reason about
    // appends racing their queries.
    URBANE_ASSIGN_OR_RETURN(
        ingest::LiveEngine * engine,
        manager_->Live(parsed.points_dataset, parsed.regions_layer));
    std::uint64_t watermark = 0;
    if (method.has_value()) {
      URBANE_ASSIGN_OR_RETURN(
          result, engine->Execute(std::move(query), *method, &watermark));
      out.method = core::ExecutionMethodToString(*method);
      out.exact = *method != core::ExecutionMethod::kBoundedRaster;
    } else {
      core::AccuracyRequirement accuracy;
      core::QueryPlan plan;
      URBANE_ASSIGN_OR_RETURN(
          result, engine->ExecuteAuto(std::move(query), accuracy, &watermark,
                                      &plan));
      out.method = core::ExecutionMethodToString(plan.method);
      out.exact = plan.method != core::ExecutionMethod::kBoundedRaster;
    }
    out.watermark = watermark;
  } else if (method.has_value()) {
    URBANE_ASSIGN_OR_RETURN(
        core::SpatialAggregation * engine,
        manager_->Engine(parsed.points_dataset, parsed.regions_layer));
    URBANE_ASSIGN_OR_RETURN(result, engine->Execute(std::move(query),
                                                    *method));
    out.method = core::ExecutionMethodToString(*method);
    out.exact = *method != core::ExecutionMethod::kBoundedRaster;
  } else {
    URBANE_ASSIGN_OR_RETURN(
        core::SpatialAggregation * engine,
        manager_->Engine(parsed.points_dataset, parsed.regions_layer));
    core::AccuracyRequirement accuracy;  // exact; the planner picks the engine
    core::QueryPlan plan;
    URBANE_ASSIGN_OR_RETURN(
        result, engine->ExecuteAuto(std::move(query), accuracy, &plan));
    out.method = core::ExecutionMethodToString(plan.method);
    out.exact = plan.method != core::ExecutionMethod::kBoundedRaster;
  }

  out.rows.reserve(result.size());
  for (std::size_t i = 0; i < result.size(); ++i) {
    server::RegionRow row;
    if (i < regions->size()) {
      row.id = (*regions)[i].id;
      row.name = (*regions)[i].name;
    }
    row.value = result.values[i];
    row.count = i < result.counts.size() ? result.counts[i] : 0;
    if (i < result.error_bounds.size()) {
      row.error_bound = result.error_bounds[i];
      row.has_error_bound = true;
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

StatusOr<server::IngestResponse> DatasetManagerBackend::Ingest(
    const server::IngestRequest& request) {
  URBANE_ASSIGN_OR_RETURN(std::uint64_t watermark,
                          manager_->IngestBatch(request.dataset,
                                                request.batch));
  server::IngestResponse response;
  response.watermark = watermark;
  response.rows_appended = request.batch.size();
  return response;
}

std::vector<server::CatalogEntry> DatasetManagerBackend::ListDatasets() {
  std::vector<server::CatalogEntry> entries;
  for (const std::string& name : manager_->PointDatasetNames()) {
    server::CatalogEntry entry;
    entry.name = name;
    if (const auto table = manager_->PointDataset(name); table.ok()) {
      entry.size = (*table)->size();
    }
    // A live data set layered on this name reports the full visible row
    // count (base + runs + hot), replacing the base-only size.
    if (const auto stats = manager_->IngestStatsFor(name); stats.ok()) {
      entry.size = stats->watermark;
    }
    entries.push_back(std::move(entry));
  }
  for (const std::string& name : manager_->LiveDatasetNames()) {
    if (const auto table = manager_->PointDataset(name); table.ok()) {
      continue;  // already listed above
    }
    server::CatalogEntry entry;
    entry.name = name;
    if (const auto stats = manager_->IngestStatsFor(name); stats.ok()) {
      entry.size = stats->watermark;
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::vector<server::CatalogEntry> DatasetManagerBackend::ListRegionLayers() {
  std::vector<server::CatalogEntry> entries;
  for (const std::string& name : manager_->RegionLayerNames()) {
    server::CatalogEntry entry;
    entry.name = name;
    if (const auto regions = manager_->RegionLayer(name); regions.ok()) {
      entry.size = (*regions)->size();
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace urbane::app
