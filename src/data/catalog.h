#ifndef URBANE_DATA_CATALOG_H_
#define URBANE_DATA_CATALOG_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace urbane::data {

/// One entry of a workspace manifest: a named data set or region layer
/// stored at a path relative to the manifest file.
struct CatalogEntry {
  enum class Kind { kPoints, kRegions };
  Kind kind = Kind::kPoints;
  std::string name;
  std::string path;      // relative to the manifest's directory
  /// "ust" (UST1 point store, memory-mapped on load) | "csv" | "urg" (URG1
  /// region snapshot) | "geojson".
  std::string format;
};

/// A workspace manifest ("urbane.workspace.json"): the deployment story for
/// a city's data sets — one JSON file enumerating every preprocessed feed
/// and boundary layer, so a session can be reopened with a single load.
class Catalog {
 public:
  Catalog() = default;

  Status Add(CatalogEntry entry);
  const std::vector<CatalogEntry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }

  /// Entry lookup by (kind, name); nullptr if absent.
  const CatalogEntry* Find(CatalogEntry::Kind kind,
                           const std::string& name) const;

  /// JSON serialization.
  std::string ToJson() const;
  static StatusOr<Catalog> FromJson(const std::string& json);

  Status WriteFile(const std::string& path) const;
  static StatusOr<Catalog> ReadFile(const std::string& path);

 private:
  std::vector<CatalogEntry> entries_;
};

/// Infers the storage format from a file extension
/// (".ust"/".csv"/".urg"/".geojson"); empty string if unknown.
std::string FormatFromPath(const std::string& path);

}  // namespace urbane::data

#endif  // URBANE_DATA_CATALOG_H_
