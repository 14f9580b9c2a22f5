#include "data/catalog.h"

#include "data/json.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace urbane::data {

namespace {

const char* KindToString(CatalogEntry::Kind kind) {
  return kind == CatalogEntry::Kind::kPoints ? "points" : "regions";
}

StatusOr<CatalogEntry::Kind> KindFromString(const std::string& text) {
  if (text == "points") return CatalogEntry::Kind::kPoints;
  if (text == "regions") return CatalogEntry::Kind::kRegions;
  return Status::InvalidArgument("unknown catalog entry kind: " + text);
}

constexpr const char* kValidFormats[] = {"ust", "csv", "urg", "geojson"};

bool IsValidFormat(const std::string& format) {
  for (const char* valid : kValidFormats) {
    if (format == valid) return true;
  }
  return false;
}

}  // namespace

std::string FormatFromPath(const std::string& path) {
  for (const char* format : kValidFormats) {
    if (EndsWith(path, std::string(".") + format)) {
      return format;
    }
  }
  return "";
}

Status Catalog::Add(CatalogEntry entry) {
  if (entry.name.empty() || entry.path.empty()) {
    return Status::InvalidArgument("catalog entries need a name and a path");
  }
  if (entry.format.empty()) {
    entry.format = FormatFromPath(entry.path);
  }
  if (!IsValidFormat(entry.format)) {
    return Status::InvalidArgument("unknown catalog format for " +
                                   entry.path);
  }
  const bool points_format =
      entry.format == "ust" || entry.format == "csv";
  if (points_format != (entry.kind == CatalogEntry::Kind::kPoints)) {
    return Status::InvalidArgument(
        "format '" + entry.format + "' does not match entry kind");
  }
  if (Find(entry.kind, entry.name) != nullptr) {
    return Status::AlreadyExists("duplicate catalog entry: " + entry.name);
  }
  entries_.push_back(std::move(entry));
  return Status::OK();
}

const CatalogEntry* Catalog::Find(CatalogEntry::Kind kind,
                                  const std::string& name) const {
  for (const CatalogEntry& entry : entries_) {
    if (entry.kind == kind && entry.name == name) {
      return &entry;
    }
  }
  return nullptr;
}

std::string Catalog::ToJson() const {
  JsonValue::Array items;
  for (const CatalogEntry& entry : entries_) {
    items.push_back(JsonValue(JsonValue::Object{
        {"kind", JsonValue(KindToString(entry.kind))},
        {"name", JsonValue(entry.name)},
        {"path", JsonValue(entry.path)},
        {"format", JsonValue(entry.format)}}));
  }
  JsonValue doc(JsonValue::Object{{"version", JsonValue(1)},
                                  {"entries", JsonValue(std::move(items))}});
  return doc.Dump(2);
}

StatusOr<Catalog> Catalog::FromJson(const std::string& json) {
  URBANE_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(json));
  const JsonValue* version = doc.Find("version");
  if (version == nullptr || !version->is_number() ||
      version->AsNumber() != 1.0) {
    return Status::InvalidArgument("unsupported workspace manifest version");
  }
  const JsonValue* entries = doc.Find("entries");
  if (entries == nullptr || !entries->is_array()) {
    return Status::InvalidArgument("manifest lacks 'entries' array");
  }
  Catalog catalog;
  for (const JsonValue& item : entries->AsArray()) {
    const JsonValue* kind = item.Find("kind");
    const JsonValue* name = item.Find("name");
    const JsonValue* path = item.Find("path");
    const JsonValue* format = item.Find("format");
    if (kind == nullptr || !kind->is_string() || name == nullptr ||
        !name->is_string() || path == nullptr || !path->is_string()) {
      return Status::InvalidArgument("malformed manifest entry");
    }
    CatalogEntry entry;
    URBANE_ASSIGN_OR_RETURN(entry.kind, KindFromString(kind->AsString()));
    entry.name = name->AsString();
    entry.path = path->AsString();
    if (format != nullptr && format->is_string()) {
      entry.format = format->AsString();
    }
    URBANE_RETURN_IF_ERROR(catalog.Add(std::move(entry)));
  }
  return catalog;
}

Status Catalog::WriteFile(const std::string& path) const {
  return WriteStringToFile(ToJson(), path);
}

StatusOr<Catalog> Catalog::ReadFile(const std::string& path) {
  URBANE_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  return FromJson(content);
}

}  // namespace urbane::data
