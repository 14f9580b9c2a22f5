#ifndef URBANE_SERVER_JSON_API_H_
#define URBANE_SERVER_JSON_API_H_

// The query server's wire format, kept separate from the transport so the
// tests can exercise request parsing and result rendering without sockets.
//
// Request (POST /v1/query):
//   { "sql": "SELECT ...",            — required
//     "method": "accurate",           — optional: scan | index | raster |
//                                       accurate | auto (default accurate)
//     "timeout_ms": 250 }             — optional per-request deadline
//
// Success response ("urbane.result.v1"):
//   { "schema": "urbane.result.v1", "dataset": ..., "regions_layer": ...,
//     "method": ..., "exact": true, "elapsed_ms": ...,
//     "watermark": 1024,              — live data sets only: the as-of row
//                                       count the result is exact for
//     "regions": [ {"id": 1, "name": "...", "value": ..., "count": ...,
//                   "error_bound": ...?}, ... ] }
// Non-finite values (AVG over an empty group) render as JSON null.
//
// Ingest request (POST /v1/ingest):
//   { "dataset": "taxi",              — required: a live data set
//     "rows": [[x, y, t, attr...],    — required: >= 1 rows, each with the
//              ...] }                   same arity (>= 3; attrs positional)
//
// Ingest response ("urbane.ingest.v1"):
//   { "schema": "urbane.ingest.v1", "dataset": ..., "rows_appended": ...,
//     "watermark": ..., "elapsed_ms": ... }
// A saturated write path answers 429 with a Retry-After header; the batch
// was not applied and can be retried verbatim.
//
// Error response (any 4xx/5xx):
//   { "error": { "code": "InvalidArgument", "message": "..." } }

#include <optional>
#include <string>

#include "core/planner.h"
#include "data/json.h"
#include "server/query_backend.h"
#include "util/status.h"

namespace urbane::server {

/// A parsed and validated /v1/query body.
struct ApiRequest {
  std::string sql;
  /// Engine to run; unset means "auto" (the planner decides).
  std::optional<core::ExecutionMethod> method;
  /// Per-request deadline; <= 0 means none.
  int timeout_ms = 0;
};

/// Parses a JSON request body. InvalidArgument on malformed JSON, a
/// missing/empty "sql", an unknown "method", or a non-numeric/negative
/// "timeout_ms".
StatusOr<ApiRequest> ParseApiRequest(const std::string& body);

/// "scan" | "index" | "raster" | "accurate" -> the enum; "auto" -> unset.
StatusOr<std::optional<core::ExecutionMethod>> ParseMethodName(
    const std::string& name);

/// Parses a POST /v1/ingest body into a batch. InvalidArgument on
/// malformed JSON, a missing dataset, no rows, ragged rows, arity < 3,
/// non-numeric cells, or a cell outside its column's range (x, y and the
/// attributes are float32, t is int64), naming the row and column. The
/// batch's schema names attributes positionally ("a0", "a1", ...) — live
/// tables validate arity, not names.
StatusOr<IngestRequest> ParseIngestRequest(const std::string& body);

/// Renders an IngestResponse as the urbane.ingest.v1 document.
data::JsonValue RenderIngestResult(const std::string& dataset,
                                   const IngestResponse& response,
                                   double elapsed_ms);

/// Renders a BackendResult as the urbane.result.v1 document. A non-null
/// `profile` (the urbane.profile.v1 document, see obs/profile.h) is
/// embedded as a trailing "profile" member — requested via ?profile=1 or
/// the X-Urbane-Profile header.
data::JsonValue RenderResult(const BackendResult& result, double elapsed_ms,
                             const data::JsonValue* profile = nullptr);

/// Renders the catalog endpoints (GET /v1/datasets, /v1/regions).
data::JsonValue RenderCatalog(const std::string& key,
                              const std::vector<CatalogEntry>& entries);

/// Renders the {"error": {...}} envelope.
data::JsonValue RenderError(const Status& status);

/// Maps a Status code onto the HTTP status the handler responds with
/// (InvalidArgument -> 400, NotFound -> 404, DeadlineExceeded -> 504, ...).
int HttpStatusForError(const Status& status);

}  // namespace urbane::server

#endif  // URBANE_SERVER_JSON_API_H_
