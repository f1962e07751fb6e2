#pragma once
// Minimal dependency-free HTTP/1.1 front end for the mapping daemon's
// observability surface (DESIGN.md §16). Serves exactly three read-only
// routes on TCP loopback:
//
//   GET /metrics       — Prometheus text exposition 0.0.4 (Handlers::metrics)
//   GET /healthz       — 200 "ok" when Handlers::ready() is true, else
//                        503 "draining" — a drain-aware readiness probe
//   GET /trace/<id>    — the stored per-request trace JSON for admission
//                        seq <id> (Handlers::trace), 404 when the ring no
//                        longer holds it
//
// Anything else is 404 (unknown path) or 405 (non-GET). This is not a web
// server: requests are parsed just enough to route (method + target up to
// the first CRLF, headers skipped), every response closes the connection,
// and a per-connection receive timeout bounds how long a stalled peer can
// hold the accept loop. All three handlers are called on the endpoint's
// accept thread — they must be thread-safe against the daemon's workers,
// which the snapshot-based renderers are by construction.
//
// The endpoint deliberately outlives the daemon's drain: /healthz flipping
// to 503 while SIGTERM winds the workers down is the whole point of a
// readiness probe, and /trace stays queryable for completed requests until
// the process exits. stop() closes the listener and joins.

#include <cstdint>
#include <functional>
#include <string>
#include <thread>

namespace turbosyn {

class HttpEndpoint {
 public:
  struct Handlers {
    /// Body of GET /metrics (content type text/plain; version=0.0.4).
    std::function<std::string()> metrics;
    /// Readiness for GET /healthz: true = 200 "ok", false = 503 "draining".
    std::function<bool()> ready;
    /// Stored trace JSON for GET /trace/<id>; empty string = 404.
    std::function<std::string(std::uint64_t)> trace;
  };

  /// `port` is the loopback port to bind; 0 binds an ephemeral one (see
  /// port()). Nothing is bound until start().
  HttpEndpoint(int port, Handlers handlers);
  ~HttpEndpoint();  // stop()

  HttpEndpoint(const HttpEndpoint&) = delete;
  HttpEndpoint& operator=(const HttpEndpoint&) = delete;

  /// Binds the loopback listener and starts the accept thread. Throws
  /// turbosyn::Error when the port cannot be bound.
  void start();

  /// Closes the listener and joins the accept thread (idempotent).
  void stop();

  /// The bound port (after start()), else -1.
  int port() const { return bound_port_; }

 private:
  void accept_loop();
  void serve_connection(int fd);

  int requested_port_;
  Handlers handlers_;
  int listen_fd_ = -1;
  int bound_port_ = -1;
  std::thread accept_thread_;
};

}  // namespace turbosyn
