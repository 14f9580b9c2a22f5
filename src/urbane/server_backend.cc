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

  server::BackendResult out;
  out.dataset = parsed.points_dataset;
  out.regions_layer = parsed.regions_layer;
  URBANE_ASSIGN_OR_RETURN(
      DatasetManager::StatementResult answer,
      manager_->ExecuteStatement(std::move(parsed), method, control,
                                 profile));
  out.method = core::ExecutionMethodToString(answer.method);
  out.exact = answer.method != core::ExecutionMethod::kBoundedRaster;
  out.watermark = answer.watermark;
  const core::QueryResult& result = answer.result;

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
