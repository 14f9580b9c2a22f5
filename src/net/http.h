#ifndef URBANE_NET_HTTP_H_
#define URBANE_NET_HTTP_H_

// Minimal HTTP/1.x message handling for the query server: an incremental
// request parser (request line, headers, Content-Length-delimited body)
// and a response formatter. The parser is a pure state machine over fed
// bytes — socket I/O lives in ReadHttpRequest — so malformed-input
// behavior is unit-testable without a socket.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace urbane::net {

/// One parsed request. `target` is the raw request target; `path`/`query`
/// split it at the first '?'. Header names are lowercased at parse time
/// (HTTP header names are case-insensitive); values keep their bytes.
struct HttpRequest {
  std::string method;   // "GET", "POST", ...
  std::string target;   // "/v1/regions?layer=nbhd"
  std::string path;     // "/v1/regions"
  std::string query;    // "layer=nbhd" ("" when absent)
  std::string version;  // "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Case-insensitive header lookup (names are stored lowercased); nullptr
  /// when absent.
  const std::string* FindHeader(const std::string& lowercase_name) const;

  /// First value of `key` in an application/x-www-form-urlencoded-style
  /// query string ("layer=nbhd&x=1"); "" when absent. No %-decoding — the
  /// API's identifiers are plain [A-Za-z0-9_] names.
  std::string QueryParam(const std::string& key) const;
};

/// Bounds a parse so a hostile peer cannot balloon memory.
struct HttpLimits {
  std::size_t max_header_bytes = 8 * 1024;
  std::size_t max_body_bytes = 1024 * 1024;
};

/// Incremental request parser. Feed bytes as they arrive; the parser stops
/// consuming once the message is complete. A parse failure is sticky and
/// carries a Status whose message is safe to echo into a 400 body.
class HttpRequestParser {
 public:
  explicit HttpRequestParser(HttpLimits limits = HttpLimits());

  enum class State {
    kHeaders,  // still reading the request line / header block
    kBody,     // headers done, awaiting Content-Length bytes
    kDone,     // complete message parsed
    kError,    // malformed or over limits (see error())
  };

  /// Consumes up to `size` bytes, advancing the state machine. Bytes past
  /// the end of a complete message are ignored (Connection: close — no
  /// pipelining). Returns the state after consuming.
  State Feed(const char* data, std::size_t size);

  State state() const { return state_; }
  bool done() const { return state_ == State::kDone; }
  /// Valid once done().
  const HttpRequest& request() const { return request_; }
  /// Non-OK once state() == kError.
  const Status& error() const { return error_; }

 private:
  State Fail(std::string message);
  bool ParseHeaderBlock();

  HttpLimits limits_;
  State state_ = State::kHeaders;
  std::string buffer_;        // unparsed header bytes
  std::size_t body_needed_ = 0;
  HttpRequest request_;
  Status error_;
};

/// One response to format. `extra_headers` lets callers attach e.g.
/// Retry-After; Content-Type/Content-Length/Connection are always written.
struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::string content_type = "text/plain";
  std::string body;
  std::vector<std::pair<std::string, std::string>> extra_headers;
  std::string version = "HTTP/1.1";
};

/// Stable reason phrase for the status codes this codebase emits.
const char* HttpReasonPhrase(int status);

/// Serializes status line + headers + body, Connection: close.
std::string FormatHttpResponse(const HttpResponse& response);

/// Reads one request from `fd` (which should already carry SO_RCVTIMEO —
/// see net::SetSocketTimeouts) into the parser until done, EOF, timeout,
/// or a parse error. Returns:
///   OK               — a complete request (in *request)
///   InvalidArgument  — malformed request (message safe for a 400 body)
///   IoError          — peer vanished / timed out before a full request
StatusOr<HttpRequest> ReadHttpRequest(int fd, const HttpLimits& limits);

/// Formats and sends `response` on `fd` (short-write/EINTR-safe SendAll).
Status WriteHttpResponse(int fd, const HttpResponse& response);

}  // namespace urbane::net

#endif  // URBANE_NET_HTTP_H_
