#include "server/json_api.h"

#include <cmath>
#include <limits>
#include <utility>

#include "util/string_util.h"

namespace urbane::server {

StatusOr<std::optional<core::ExecutionMethod>> ParseMethodName(
    const std::string& name) {
  if (name == "scan") return std::optional(core::ExecutionMethod::kScan);
  if (name == "index") return std::optional(core::ExecutionMethod::kIndexJoin);
  if (name == "raster") {
    return std::optional(core::ExecutionMethod::kBoundedRaster);
  }
  if (name == "accurate") {
    return std::optional(core::ExecutionMethod::kAccurateRaster);
  }
  if (name == "auto") return std::optional<core::ExecutionMethod>();
  return Status::InvalidArgument(
      "unknown method '" + name +
      "' (expected scan | index | raster | accurate | auto)");
}

StatusOr<ApiRequest> ParseApiRequest(const std::string& body) {
  URBANE_ASSIGN_OR_RETURN(data::JsonValue doc, data::ParseJson(body));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  ApiRequest request;

  const data::JsonValue* sql = doc.Find("sql");
  if (sql == nullptr || !sql->is_string() || sql->AsString().empty()) {
    return Status::InvalidArgument(
        "request must carry a non-empty string field \"sql\"");
  }
  request.sql = sql->AsString();

  if (const data::JsonValue* method = doc.Find("method")) {
    if (!method->is_string()) {
      return Status::InvalidArgument("\"method\" must be a string");
    }
    URBANE_ASSIGN_OR_RETURN(request.method,
                            ParseMethodName(method->AsString()));
  } else {
    // Default: the paper's exact raster join, the fastest exact engine.
    request.method = core::ExecutionMethod::kAccurateRaster;
  }

  if (const data::JsonValue* timeout = doc.Find("timeout_ms")) {
    if (!timeout->is_number() || !std::isfinite(timeout->AsNumber()) ||
        timeout->AsNumber() < 0) {
      return Status::InvalidArgument(
          "\"timeout_ms\" must be a non-negative number");
    }
    request.timeout_ms = static_cast<int>(timeout->AsNumber());
  }
  return request;
}

namespace {

constexpr double kTwoTo63 = 9223372036854775808.0;
constexpr double kFloatMax = std::numeric_limits<float>::max();

}  // namespace

StatusOr<IngestRequest> ParseIngestRequest(const std::string& body) {
  URBANE_ASSIGN_OR_RETURN(data::JsonValue doc, data::ParseJson(body));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  IngestRequest request;

  const data::JsonValue* dataset = doc.Find("dataset");
  if (dataset == nullptr || !dataset->is_string() ||
      dataset->AsString().empty()) {
    return Status::InvalidArgument(
        "request must carry a non-empty string field \"dataset\"");
  }
  request.dataset = dataset->AsString();

  const data::JsonValue* rows = doc.Find("rows");
  if (rows == nullptr || !rows->is_array() || rows->AsArray().empty()) {
    return Status::InvalidArgument(
        "request must carry a non-empty array field \"rows\"");
  }
  const data::JsonValue::Array& array = rows->AsArray();

  // Arity comes from the first row; every row must match it. Attribute
  // names are positional — arity, not names, is what the live table checks.
  std::size_t arity = 0;
  if (array[0].is_array()) arity = array[0].AsArray().size();
  if (arity < 3) {
    return Status::InvalidArgument(
        "each row must be an array [x, y, t, attr...] with >= 3 numbers");
  }
  std::vector<std::string> names;
  names.reserve(arity - 3);
  for (std::size_t i = 0; i + 3 < arity; ++i) {
    names.push_back("a" + std::to_string(i));
  }
  URBANE_ASSIGN_OR_RETURN(data::Schema schema,
                          data::Schema::Create(std::move(names)));
  data::PointTable batch(std::move(schema));
  batch.Reserve(array.size());
  std::vector<float> attrs(arity - 3, 0.0f);
  for (std::size_t r = 0; r < array.size(); ++r) {
    if (!array[r].is_array() || array[r].AsArray().size() != arity) {
      return Status::InvalidArgument(
          "row " + std::to_string(r) + " does not match the first row's "
          "arity of " + std::to_string(arity));
    }
    const data::JsonValue::Array& row = array[r].AsArray();
    for (std::size_t c = 0; c < arity; ++c) {
      if (!row[c].is_number() || !std::isfinite(row[c].AsNumber())) {
        return Status::InvalidArgument(
            "row " + std::to_string(r) + " holds a non-numeric cell");
      }
      // x, y and the attributes are float32 columns and t an int64 one: a
      // cell beyond its column's range would be stored as ±inf, or make the
      // cast to int64 undefined.
      const double value = row[c].AsNumber();
      const bool fits = c == 2 ? value >= -kTwoTo63 && value < kTwoTo63
                               : std::fabs(value) <= kFloatMax;
      if (!fits) {
        const std::string column =
            c < 3 ? std::string(1, "xyt"[c]) : "a" + std::to_string(c - 3);
        return Status::InvalidArgument(StringPrintf(
            "row %zu, column %s: %g is outside the column's %s range", r,
            column.c_str(), value, c == 2 ? "int64" : "float32"));
      }
    }
    for (std::size_t i = 3; i < arity; ++i) {
      attrs[i - 3] = static_cast<float>(row[i].AsNumber());
    }
    URBANE_RETURN_IF_ERROR(batch.AppendRow(
        static_cast<float>(row[0].AsNumber()),
        static_cast<float>(row[1].AsNumber()),
        static_cast<std::int64_t>(row[2].AsNumber()), attrs));
  }
  request.batch = std::move(batch);
  return request;
}

namespace {

// JsonValue refuses to serialise non-finite numbers; the API contract is
// that they render as null (e.g. AVG over an empty group is NaN).
data::JsonValue FiniteOrNull(double value) {
  if (!std::isfinite(value)) return data::JsonValue();
  return data::JsonValue(value);
}

}  // namespace

data::JsonValue RenderResult(const BackendResult& result, double elapsed_ms,
                             const data::JsonValue* profile) {
  data::JsonValue::Array regions;
  regions.reserve(result.rows.size());
  for (const RegionRow& row : result.rows) {
    data::JsonValue::Object region;
    region.emplace_back("id",
                        data::JsonValue(static_cast<double>(row.id)));
    region.emplace_back("name", data::JsonValue(row.name));
    region.emplace_back("value", FiniteOrNull(row.value));
    region.emplace_back("count",
                        data::JsonValue(static_cast<double>(row.count)));
    if (row.has_error_bound) {
      region.emplace_back("error_bound", FiniteOrNull(row.error_bound));
    }
    regions.emplace_back(std::move(region));
  }
  data::JsonValue::Object doc;
  doc.emplace_back("schema", data::JsonValue("urbane.result.v1"));
  doc.emplace_back("dataset", data::JsonValue(result.dataset));
  doc.emplace_back("regions_layer", data::JsonValue(result.regions_layer));
  doc.emplace_back("method", data::JsonValue(result.method));
  doc.emplace_back("exact", data::JsonValue(result.exact));
  doc.emplace_back("elapsed_ms", FiniteOrNull(elapsed_ms));
  if (result.watermark.has_value()) {
    doc.emplace_back(
        "watermark",
        data::JsonValue(static_cast<double>(*result.watermark)));
  }
  doc.emplace_back("regions", data::JsonValue(std::move(regions)));
  if (profile != nullptr) {
    doc.emplace_back("profile", *profile);
  }
  return data::JsonValue(std::move(doc));
}

data::JsonValue RenderIngestResult(const std::string& dataset,
                                   const IngestResponse& response,
                                   double elapsed_ms) {
  data::JsonValue::Object doc;
  doc.emplace_back("schema", data::JsonValue("urbane.ingest.v1"));
  doc.emplace_back("dataset", data::JsonValue(dataset));
  doc.emplace_back(
      "rows_appended",
      data::JsonValue(static_cast<double>(response.rows_appended)));
  doc.emplace_back(
      "watermark",
      data::JsonValue(static_cast<double>(response.watermark)));
  doc.emplace_back("elapsed_ms", FiniteOrNull(elapsed_ms));
  return data::JsonValue(std::move(doc));
}

data::JsonValue RenderCatalog(const std::string& key,
                              const std::vector<CatalogEntry>& entries) {
  data::JsonValue::Array items;
  items.reserve(entries.size());
  for (const CatalogEntry& entry : entries) {
    data::JsonValue::Object item;
    item.emplace_back("name", data::JsonValue(entry.name));
    item.emplace_back("size",
                      data::JsonValue(static_cast<double>(entry.size)));
    items.emplace_back(std::move(item));
  }
  data::JsonValue::Object doc;
  doc.emplace_back("schema", data::JsonValue("urbane.catalog.v1"));
  doc.emplace_back(key, data::JsonValue(std::move(items)));
  return data::JsonValue(std::move(doc));
}

data::JsonValue RenderError(const Status& status) {
  data::JsonValue::Object error;
  error.emplace_back("code",
                     data::JsonValue(StatusCodeToString(status.code())));
  error.emplace_back("message", data::JsonValue(status.message()));
  data::JsonValue::Object doc;
  doc.emplace_back("error", data::JsonValue(std::move(error)));
  return data::JsonValue(std::move(doc));
}

int HttpStatusForError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kAlreadyExists:
    case StatusCode::kFailedPrecondition:
      return 409;
    case StatusCode::kOutOfRange:
      return 416;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kNotImplemented:
      return 501;
    default:
      return 500;
  }
}

}  // namespace urbane::server
