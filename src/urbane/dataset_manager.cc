#include "urbane/dataset_manager.h"

#include <filesystem>
#include <system_error>

#include "core/sql.h"
#include "data/binary_io.h"
#include "data/catalog.h"
#include "data/csv_loader.h"
#include "data/geojson.h"
#include "util/csv.h"

namespace urbane::app {

namespace {

// Directory part of a path ("" for bare filenames), with trailing slash.
std::string DirectoryOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string()
                                    : path.substr(0, slash + 1);
}

}  // namespace

Status DatasetManager::AddPointDataset(const std::string& name,
                                       data::PointTable table) {
  if (name.empty()) {
    return Status::InvalidArgument("data set name must be non-empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (points_.count(name) != 0) {
    return Status::AlreadyExists("data set already registered: " + name);
  }
  URBANE_RETURN_IF_ERROR(table.Validate());
  points_[name] = std::make_unique<data::PointTable>(std::move(table));
  return Status::OK();
}

Status DatasetManager::AddStoreDataset(const std::string& name,
                                       const std::string& path) {
  if (name.empty()) {
    return Status::InvalidArgument("data set name must be non-empty");
  }
  URBANE_ASSIGN_OR_RETURN(store::StoreReader reader,
                          store::StoreReader::Open(path));
  auto owned = std::make_unique<store::StoreReader>(std::move(reader));
  data::PointTable table;
  if (owned->mapped() || owned->row_count() == 0) {
    URBANE_ASSIGN_OR_RETURN(table, owned->MappedTable());
  } else {
    URBANE_ASSIGN_OR_RETURN(table, owned->Materialize());
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (points_.count(name) != 0) {
    return Status::AlreadyExists("data set already registered: " + name);
  }
  URBANE_RETURN_IF_ERROR(table.Validate());
  points_[name] = std::make_unique<data::PointTable>(std::move(table));
  stores_[name] = std::move(owned);
  return Status::OK();
}

StatusOr<store::StoreWriterStats> DatasetManager::ConvertToStore(
    const std::string& dataset, const std::string& path,
    std::uint64_t block_rows) {
  const data::PointTable* table = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    URBANE_ASSIGN_OR_RETURN(table, PointDatasetLocked(dataset));
  }
  // Conversion runs outside the lock: the table is immutable once
  // registered, and a long conversion must not stall concurrent queries.
  store::StoreWriterOptions options;
  options.block_rows = block_rows;
  return store::WritePointStore(*table, path, options);
}

Status DatasetManager::AddRegionLayer(const std::string& name,
                                      data::RegionSet regions) {
  if (name.empty()) {
    return Status::InvalidArgument("region layer name must be non-empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (regions_.count(name) != 0) {
    return Status::AlreadyExists("region layer already registered: " + name);
  }
  regions_[name] = std::make_unique<data::RegionSet>(std::move(regions));
  return Status::OK();
}

std::vector<std::string> DatasetManager::PointDatasetNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(points_.size());
  for (const auto& [name, table] : points_) {
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> DatasetManager::RegionLayerNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(regions_.size());
  for (const auto& [name, set] : regions_) {
    names.push_back(name);
  }
  return names;
}

StatusOr<const data::PointTable*> DatasetManager::PointDatasetLocked(
    const std::string& name) const {
  const auto it = points_.find(name);
  if (it == points_.end()) {
    return Status::NotFound("unknown data set: " + name);
  }
  return const_cast<const data::PointTable*>(it->second.get());
}

StatusOr<const data::RegionSet*> DatasetManager::RegionLayerLocked(
    const std::string& name) const {
  const auto it = regions_.find(name);
  if (it == regions_.end()) {
    return Status::NotFound("unknown region layer: " + name);
  }
  return const_cast<const data::RegionSet*>(it->second.get());
}

StatusOr<const data::PointTable*> DatasetManager::PointDataset(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return PointDatasetLocked(name);
}

StatusOr<const data::RegionSet*> DatasetManager::RegionLayer(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return RegionLayerLocked(name);
}

StatusOr<core::SpatialAggregation*> DatasetManager::Engine(
    const std::string& dataset, const std::string& region_layer,
    const core::RasterJoinOptions& raster_options) {
  const std::string key = dataset + "\x1f" + region_layer;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = engines_.find(key);
  if (it != engines_.end()) {
    return it->second.get();
  }
  URBANE_ASSIGN_OR_RETURN(const data::PointTable* table,
                          PointDatasetLocked(dataset));
  URBANE_ASSIGN_OR_RETURN(const data::RegionSet* regions,
                          RegionLayerLocked(region_layer));
  auto engine = std::make_unique<core::SpatialAggregation>(*table, *regions,
                                                           raster_options);
  const auto store_it = stores_.find(dataset);
  if (store_it != stores_.end()) {
    engine->AttachZoneMaps(&store_it->second->zone_maps());
  }
  if (engine_shards_ > 1) {
    engine->set_num_shards(engine_shards_);
  }
  core::SpatialAggregation* raw = engine.get();
  engines_[key] = std::move(engine);
  return raw;
}

void DatasetManager::set_engine_shards(std::size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  std::lock_guard<std::mutex> lock(mu_);
  engine_shards_ = num_shards;
  for (auto& [key, engine] : engines_) {
    engine->set_num_shards(num_shards);
  }
  for (auto& [key, engine] : live_engines_) {
    engine->set_num_shards(num_shards);
  }
}

std::size_t DatasetManager::engine_shards() const {
  std::lock_guard<std::mutex> lock(mu_);
  return engine_shards_;
}

Status DatasetManager::EnableIngest(const std::string& dataset,
                                    const std::string& directory,
                                    std::vector<std::string> attribute_names,
                                    const ingest::IngestOptions& options) {
  if (dataset.empty()) {
    return Status::InvalidArgument("data set name must be non-empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (live_.count(dataset) != 0) {
    return Status::AlreadyExists("data set is already live: " + dataset);
  }
  const data::PointTable* base = nullptr;
  const core::ZoneMapIndex* base_zone_maps = nullptr;
  data::Schema schema;
  if (const auto it = points_.find(dataset); it != points_.end()) {
    base = it->second.get();
    schema = base->schema();
    if (!attribute_names.empty()) {
      return Status::InvalidArgument(
          "'" + dataset + "' is registered; its schema fixes the attribute "
          "columns (do not pass attribute names)");
    }
    if (const auto store_it = stores_.find(dataset);
        store_it != stores_.end()) {
      base_zone_maps = &store_it->second->zone_maps();
    }
  } else {
    URBANE_ASSIGN_OR_RETURN(schema,
                            data::Schema::Create(std::move(attribute_names)));
  }
  URBANE_ASSIGN_OR_RETURN(
      std::unique_ptr<ingest::LiveTable> table,
      ingest::LiveTable::Open(directory, std::move(schema), base,
                              base_zone_maps, options));
  live_[dataset] = std::move(table);
  return Status::OK();
}

bool DatasetManager::IsLive(const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.count(dataset) != 0;
}

std::vector<std::string> DatasetManager::LiveDatasetNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(live_.size());
  for (const auto& [name, table] : live_) {
    names.push_back(name);
  }
  return names;
}

StatusOr<std::uint64_t> DatasetManager::IngestBatch(
    const std::string& dataset, const data::PointTable& batch) {
  ingest::LiveTable* table = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = live_.find(dataset);
    if (it == live_.end()) {
      return Status::NotFound("not a live data set: " + dataset +
                              " (enable ingest first)");
    }
    table = it->second.get();
  }
  // Append outside the registry lock: the table serializes internally and
  // a saturated write path must not stall unrelated lookups.
  return table->Append(batch);
}

Status DatasetManager::FlushIngest(const std::string& dataset) {
  ingest::LiveTable* table = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = live_.find(dataset);
    if (it == live_.end()) {
      return Status::NotFound("not a live data set: " + dataset);
    }
    table = it->second.get();
  }
  return table->Flush();
}

Status DatasetManager::CompactIngest(const std::string& dataset) {
  ingest::LiveTable* table = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = live_.find(dataset);
    if (it == live_.end()) {
      return Status::NotFound("not a live data set: " + dataset);
    }
    table = it->second.get();
  }
  return table->Compact();
}

StatusOr<ingest::IngestStats> DatasetManager::IngestStatsFor(
    const std::string& dataset) const {
  const ingest::LiveTable* table = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = live_.find(dataset);
    if (it == live_.end()) {
      return Status::NotFound("not a live data set: " + dataset);
    }
    table = it->second.get();
  }
  return table->stats();
}

StatusOr<data::Schema> DatasetManager::LiveSchema(
    const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = live_.find(dataset);
  if (it == live_.end()) {
    return Status::NotFound("not a live data set: " + dataset);
  }
  return it->second->schema();
}

StatusOr<ingest::LiveEngine*> DatasetManager::Live(
    const std::string& dataset, const std::string& region_layer) {
  const std::string key = dataset + "\x1f" + region_layer;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = live_engines_.find(key);
  if (it != live_engines_.end()) {
    return it->second.get();
  }
  const auto live_it = live_.find(dataset);
  if (live_it == live_.end()) {
    return Status::NotFound("not a live data set: " + dataset);
  }
  URBANE_ASSIGN_OR_RETURN(const data::RegionSet* regions,
                          RegionLayerLocked(region_layer));
  ingest::LiveEngineOptions options;
  options.num_shards = engine_shards_;
  auto engine = std::make_unique<ingest::LiveEngine>(live_it->second.get(),
                                                     regions, options);
  ingest::LiveEngine* raw = engine.get();
  live_engines_[key] = std::move(engine);
  return raw;
}

Status DatasetManager::LoadWorkspace(const std::string& manifest_path) {
  URBANE_ASSIGN_OR_RETURN(data::Catalog catalog,
                          data::Catalog::ReadFile(manifest_path));
  const std::string base = DirectoryOf(manifest_path);
  for (const data::CatalogEntry& entry : catalog.entries()) {
    const std::string path = base + entry.path;
    // Catalog::Add has already matched each format to its entry kind.
    if (entry.format == "ust") {
      URBANE_RETURN_IF_ERROR(AddStoreDataset(entry.name, path));
    } else if (entry.format == "csv") {
      URBANE_ASSIGN_OR_RETURN(data::PointTable table,
                              data::ReadPointTableCsvFile(path));
      URBANE_RETURN_IF_ERROR(AddPointDataset(entry.name, std::move(table)));
    } else if (entry.format == "urg") {
      URBANE_ASSIGN_OR_RETURN(data::RegionSet regions,
                              data::ReadRegionSetBinary(path));
      URBANE_RETURN_IF_ERROR(AddRegionLayer(entry.name, std::move(regions)));
    } else {
      URBANE_ASSIGN_OR_RETURN(data::RegionSet regions,
                              data::ReadGeoJsonRegionsFile(path));
      URBANE_RETURN_IF_ERROR(AddRegionLayer(entry.name, std::move(regions)));
    }
  }
  return Status::OK();
}

Status DatasetManager::SaveWorkspace(const std::string& directory) const {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::IoError("cannot create workspace directory '" +
                           directory + "': " + ec.message());
  }
  std::lock_guard<std::mutex> lock(mu_);
  data::Catalog catalog;
  for (const auto& [name, table] : points_) {
    // The store lands through a temp file and a rename, so saving over a
    // store this manager has mapped leaves the live mapping intact.
    const std::string filename = name + ".ust";
    URBANE_RETURN_IF_ERROR(
        store::WritePointStore(*table, directory + "/" + filename).status());
    data::CatalogEntry entry;
    entry.kind = data::CatalogEntry::Kind::kPoints;
    entry.name = name;
    entry.path = filename;
    URBANE_RETURN_IF_ERROR(catalog.Add(std::move(entry)));
  }
  for (const auto& [name, regions] : regions_) {
    const std::string filename = name + ".urg";
    URBANE_RETURN_IF_ERROR(
        data::WriteRegionSetBinary(*regions, directory + "/" + filename));
    data::CatalogEntry entry;
    entry.kind = data::CatalogEntry::Kind::kRegions;
    entry.name = name;
    entry.path = filename;
    URBANE_RETURN_IF_ERROR(catalog.Add(std::move(entry)));
  }
  return catalog.WriteFile(directory + "/urbane.workspace.json");
}

StatusOr<DatasetManager::StatementResult> DatasetManager::ExecuteStatement(
    core::ParsedQuery statement, std::optional<core::ExecutionMethod> method,
    const core::QueryControl* control, obs::QueryProfile* profile) {
  core::AggregationQuery query;
  query.aggregate = std::move(statement.aggregate);
  query.filter = std::move(statement.filter);
  query.control = control;
  query.profile = profile;
  const core::AccuracyRequirement exact;
  core::QueryPlan plan;
  StatementResult answer;
  if (IsLive(statement.points_dataset)) {
    // Live data sets execute against a consistent as-of snapshot; the
    // watermark says exactly which one, so clients can reason about
    // appends racing their queries.
    URBANE_ASSIGN_OR_RETURN(
        ingest::LiveEngine * engine,
        Live(statement.points_dataset, statement.regions_layer));
    std::uint64_t watermark = 0;
    URBANE_ASSIGN_OR_RETURN(
        answer.result,
        method.has_value()
            ? engine->Execute(std::move(query), *method, &watermark)
            : engine->ExecuteAuto(std::move(query), exact, &watermark,
                                  &plan));
    answer.watermark = watermark;
  } else {
    URBANE_ASSIGN_OR_RETURN(
        core::SpatialAggregation * engine,
        Engine(statement.points_dataset, statement.regions_layer));
    URBANE_ASSIGN_OR_RETURN(
        answer.result, method.has_value()
                           ? engine->Execute(std::move(query), *method)
                           : engine->ExecuteAuto(std::move(query), exact,
                                                 &plan));
  }
  answer.method = method.value_or(plan.method);
  return answer;
}

StatusOr<core::QueryResult> DatasetManager::ExecuteSql(
    const std::string& sql, core::ExecutionMethod method,
    obs::QueryProfile* profile, std::uint64_t* watermark) {
  URBANE_ASSIGN_OR_RETURN(core::ParsedQuery parsed,
                          core::ParseQuerySql(sql));
  URBANE_ASSIGN_OR_RETURN(
      StatementResult answer,
      ExecuteStatement(std::move(parsed), method, nullptr, profile));
  if (watermark != nullptr && answer.watermark.has_value()) {
    *watermark = *answer.watermark;
  }
  return std::move(answer.result);
}

}  // namespace urbane::app
