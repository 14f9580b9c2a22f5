#ifndef URBANE_NET_SOCKET_H_
#define URBANE_NET_SOCKET_H_

// Raw POSIX TCP plumbing for the query server. No third-party
// dependencies; on platforms without BSD sockets every entry point
// degrades to a clean NotImplemented/IoError status so higher layers can
// gate features on SocketsAvailable().
//
// All listeners bind the loopback interface only: the query server (and
// the scrape endpoints it mounts) is a sidecar-local service; exposing it
// beyond the host is a deployment concern (reverse proxy), not this
// layer's.

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace urbane::net {

/// True when the platform has BSD sockets (compiled under __unix__).
bool SocketsAvailable();

/// Creates a loopback TCP listener: socket + SO_REUSEADDR + bind + listen,
/// set non-blocking (so accept after a poll wakeup can never wedge on a
/// vanished connection). `port` 0 picks an ephemeral port; the bound port
/// is written to `*bound_port`. Returns the listening fd.
StatusOr<int> ListenLoopback(std::uint16_t port, int backlog,
                             std::uint16_t* bound_port);

/// Polls `fd` for readability for up to `timeout_ms`. Returns true when
/// readable; false on timeout or error (EINTR counts as a timeout slice —
/// callers loop anyway).
bool WaitReadable(int fd, int timeout_ms);

/// Accepts one pending connection on a non-blocking listener. Returns the
/// connection fd, or -1 when none is pending (EAGAIN / transient errors).
int AcceptConnection(int listen_fd);

/// Bounds how long a blocking recv/send on `fd` may stall (SO_RCVTIMEO /
/// SO_SNDTIMEO). A slow or half-open peer then fails the call with a
/// timeout instead of hanging the serving thread forever.
void SetSocketTimeouts(int fd, int recv_timeout_ms, int send_timeout_ms);

/// Sends the whole buffer, retrying EINTR and short writes (a peer that
/// reads slowly makes send() accept partial chunks). Fails with IoError on
/// a vanished peer or when SO_SNDTIMEO expires mid-write.
Status SendAll(int fd, const std::string& data);

/// Receives up to `capacity` bytes, retrying EINTR. Returns 0 on orderly
/// EOF; IoError on connection errors or an SO_RCVTIMEO expiry.
StatusOr<std::size_t> RecvSome(int fd, char* buffer, std::size_t capacity);

/// Closes a socket fd (no-op for fd < 0).
void CloseSocket(int fd);

/// Close for responses sent without reading the request (429 shed, 503
/// drain): half-closes the write side so the peer sees orderly EOF, then
/// discards pending input until EOF or `max_wait_ms`, then closes. A plain
/// close() here would reset the connection (unread bytes in the receive
/// buffer turn close into RST) and the peer could lose the response that
/// was just sent.
void LingeringClose(int fd, int max_wait_ms);

/// Blocking TCP connect to 127.0.0.1:port. Client side for the test suite
/// and the load generator; the serving path never dials out.
StatusOr<int> ConnectLoopback(std::uint16_t port);

/// Reads from `fd` until orderly EOF, appending to *out. With a peer that
/// sends Connection: close responses (all of ours), this collects exactly
/// one full response. IoError on connection errors / SO_RCVTIMEO expiry.
Status RecvAll(int fd, std::string* out);

}  // namespace urbane::net

#endif  // URBANE_NET_SOCKET_H_
