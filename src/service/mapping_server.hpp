#pragma once
// Always-on mapping daemon: a long-lived server that accepts circuits over
// one Unix-domain socket, runs them through the supervised cache-aware flow
// machinery, and streams results back as line-delimited JSON. One process,
// one shared FlowCache (with the in-memory hot tier — see
// cache/flow_cache.hpp), many clients.
//
// Protocol (DESIGN.md §14). One request per line:
//
//   {"op":"map","id":7,"client":"ci","blif":"...","flow":"turbosyn","k":5,
//    "deadline_ms":2000}                       — map a netlist
//   {"op":"map","id":9,"blif":"...",
//    "portfolio":"turbosyn,turbomap,flowsyn_s"} — race engines
//   STATS      (or {"op":"stats"})             — one JSON aggregate object
//   PING       (or {"op":"ping"})              — liveness
//   CANCEL 7   (or {"op":"cancel","id":7})     — cancel a queued/running map
//   SHUTDOWN   (or {"op":"shutdown"})          — graceful drain
//
// Every map request ships its netlist inline in "blif"; the daemon never
// reads the client's filesystem. "portfolio" (a comma-separated engine
// list, validated against the registry at parse time) races the named
// engines instead of running one flow; the result record carries the
// winner in its "engine" field and the STATS aggregate rolls up per-engine
// win counts.
//
// Request objects are flat JSON (base/json_util.hpp): strict parsing,
// numbers validated with parse_int_strict — a malformed field is an "error"
// reply naming the field, never an atoi-style silent zero. Replies are one
// JSON object per line, first field "reply": "queued" acknowledges
// admission, "result" carries the finished record (the exact
// batch_record_json schema plus id/client), "cancel"/"stats"/"pong"/
// "error"/"shutdown" answer their verbs.
//
// Scheduling. Admitted requests enter an AdmissionQueue that is fair across
// client ids: workers pop round-robin over clients (not FIFO over arrival),
// and a per-client in-flight cap keeps one chatty client from occupying
// every lane. Each request runs under its own RunBudget slice carved from a
// configurable global BudgetPool — the daemon can promise "at most N
// core-seconds per window" and unused slice time is refunded.
//
// The server owns long-lived worker threads, unlike run_batch, whose lanes
// serve one task set and are joined when it ends: a daemon needs lanes that
// outlive any one request and block on an empty queue. See DESIGN.md §14.
//
// Supervision and poison. Every request runs through run_supervised_job —
// retries with capped backoff, containment of stage failures — and a
// request that quarantines registers its circuit (keyed by a hash of the
// netlist text) in a poison set: resubmitting the same circuit is answered
// with an immediate quarantined record instead of burning another
// max_attempts runs.
//
// Drain. request_shutdown() (the SHUTDOWN verb, or SIGTERM via the external
// cancel token) stops accepting, cancels running requests (they wind down
// to best-so-far), and emits a cancelled record for every request still
// queued — every admitted request produces exactly one JSONL record, even
// across a drain. JSONL goes through the hardened JsonlSink (write faults
// absorbed and counted, per-record flush).

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/run_budget.hpp"
#include "base/trace.hpp"
#include "cache/flow_cache.hpp"
#include "service/batch_runner.hpp"
#include "service/http_endpoint.hpp"

namespace turbosyn {

/// One consistent read of every counter the daemon exposes. Both render
/// targets — the STATS JSON reply and the Prometheus /metrics exposition —
/// are pure functions of this struct, so a STATS reply and a scrape taken
/// from the same snapshot agree bit for bit on every shared counter
/// (DESIGN.md §16). Fill with MappingServer::snapshot().
struct StatsSnapshot {
  // Server counters and queue/worker state.
  std::int64_t admitted = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;
  std::int64_t rejected = 0;
  std::int64_t poison_blocked = 0;
  std::int64_t retries = 0;
  std::int64_t queue_depth = 0;
  std::int64_t in_flight = 0;
  std::int64_t connections = 0;  // open line-protocol connections
  int workers = 1;
  bool draining = false;
  std::int64_t jsonl_faults = 0;
  // Budget pool.
  std::int64_t budget_total_ms = 0;
  std::int64_t budget_remaining_ms = 0;
  // FlowCache (has_cache gates the whole block, mirroring STATS).
  bool has_cache = false;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_stores = 0;
  std::int64_t cache_rejects = 0;
  std::int64_t cache_near_hits = 0;  // always 0, not exported: synthbench reads it
  std::int64_t cache_recovered_entries = 0;
  std::int64_t cache_recovered_tmp = 0;
  std::int64_t cache_store_retries = 0;
  std::int64_t hot_hits = 0;
  std::int64_t hot_evictions = 0;
  std::int64_t hot_entries = 0;
  std::int64_t hot_bytes = 0;
  // Portfolio rollups.
  std::int64_t portfolio_runs = 0;
  std::int64_t portfolio_cancelled_engines = 0;  // always 0: synthbench reads it (ROADMAP item 5)
  double portfolio_saved_seconds = 0.0;          // always 0: synthbench reads it (ROADMAP item 5)
  std::map<std::string, std::int64_t> portfolio_wins;
  // Probe ledger, flow wall time, per-stage rollups.
  std::int64_t total_probes = 0;
  std::int64_t imported_probes = 0;
  double flow_seconds = 0.0;
  /// The share of flow_seconds spent on requests served from the cache.
  double hit_flow_seconds = 0.0;
  struct StageStat {
    double seconds = 0.0;
    std::int64_t runs = 0;
  };
  std::map<std::string, StageStat> stages;
  // Failpoint trigger counts (always present; empty when nothing armed).
  std::map<std::string, std::int64_t> failpoints;
  // Trace counter totals: the global sink's totals merged with the
  // accumulated per-request (trace-ring) totals. has_trace gates the block.
  bool has_trace = false;
  std::map<std::string, std::int64_t> trace_totals;
  // Per-request trace ring.
  bool has_trace_ring = false;
  std::int64_t traces_stored = 0;
  std::int64_t traces_evicted = 0;
  std::int64_t trace_ring_entries = 0;
  std::int64_t trace_ring_bytes = 0;
};

/// The STATS reply ({"reply":"stats",...}) rendered from a snapshot.
std::string render_stats_json(const StatsSnapshot& snap);

/// The same counters as Prometheus text exposition format 0.0.4: every
/// family is `ts_`-prefixed, carries # HELP and # TYPE lines, and counters
/// end in `_total` (tools/promlint.py enforces all three in CI).
std::string render_prometheus(const StatsSnapshot& snap);

/// One "map" request, as parsed off the wire.
struct MapRequest {
  std::int64_t id = 0;     // client-chosen correlation id (>= 0)
  std::string client;      // fairness key; defaults to the connection's id
  std::string blif;        // the netlist text (required)
  FlowKind flow = FlowKind::kTurboSyn;
  /// Engine names to race instead of `flow` (the "portfolio" request field,
  /// a comma-separated list validated at parse time). Empty = standalone.
  std::vector<std::string> portfolio;
  int k = 5;
  /// Requested wall-clock slice; the server caps it to its per-request
  /// ceiling and to what the global pool has left. 0 = server default.
  std::int64_t deadline_ms = 0;
};

/// One parsed request line: a verb or a protocol error (never throws).
struct ParsedLine {
  enum class Kind { kMap, kStats, kPing, kCancel, kShutdown, kError };
  Kind kind = Kind::kError;
  MapRequest map;           // kMap
  std::int64_t cancel_id = 0;  // kCancel
  std::string error;        // kError: what was wrong, naming the field
};

/// Parses one request line: bare verbs (STATS, PING, CANCEL <id>, SHUTDOWN)
/// or a flat JSON object as documented above. Exposed for tests and for
/// embedding the protocol elsewhere.
ParsedLine parse_protocol_line(const std::string& line);

/// Round-robin admission queue with a per-client in-flight cap.
///
/// push() appends to the ticket's client's FIFO; pop() serves clients in
/// round-robin order, skipping any client at its in-flight cap, and blocks
/// while nothing is eligible. complete() returns a client's in-flight slot.
/// close() wakes every popper with nullopt; drain() then removes whatever
/// was still queued so the caller can emit records for it.
class AdmissionQueue {
 public:
  struct Ticket {
    MapRequest request;
    std::string poison_key;  // MappingServer::poison_key(request), hashed once at admission
    std::uint64_t seq = 0;  // server-wide admission number
    int connection = -1;    // reply target (-1: none, e.g. tests)
    std::shared_ptr<CancelToken> cancel;  // per-request; never null once admitted
  };

  /// `max_depth` bounds queued (not yet popped) tickets; `per_client`
  /// bounds how many of one client's tickets may be popped-but-incomplete
  /// at once (>= 1).
  AdmissionQueue(std::size_t max_depth, int per_client);

  /// False when the queue is full or closed (the caller rejects the
  /// request); true means the ticket will be popped exactly once, unless
  /// the queue is closed first and drain() returns it.
  bool push(Ticket ticket);

  /// Next eligible ticket, blocking. nullopt once closed (after the queue
  /// has been observed empty or ineligible — remaining tickets are the
  /// drainer's).
  std::optional<Ticket> pop();

  /// Returns the in-flight slot pop() charged to `client` for ticket `id`.
  void complete(const std::string& client, std::int64_t id);

  void close();
  bool closed() const;

  /// Everything still queued (valid after close(); callable anytime).
  std::vector<Ticket> drain();

  /// Cancels a queued or in-flight ticket: sets its cancel token. True iff
  /// a ticket with this (client, id) was found (queued tickets stay queued
  /// — the popping worker observes the token and reports without running).
  bool cancel(const std::string& client, std::int64_t id);

  /// Cancels every queued and in-flight ticket (the drain path).
  void cancel_all();

  std::size_t depth() const;
  int in_flight() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::size_t max_depth_;
  int per_client_;
  bool closed_ = false;
  /// Per-client FIFOs; round_robin_ orders the clients and the cursor
  /// rotates so every pop starts the scan at a different client.
  std::map<std::string, std::deque<Ticket>> queues_;
  std::vector<std::string> round_robin_;
  std::size_t rr_cursor_ = 0;
  std::map<std::string, int> in_flight_;
  std::size_t depth_ = 0;
  /// Tokens of popped-but-incomplete tickets, for cancel() of running work.
  std::map<std::pair<std::string, std::int64_t>, std::shared_ptr<CancelToken>> running_;
};

struct MappingServerOptions {
  /// Unix-domain socket path (unlinked and rebound on start; required).
  std::string socket_path;
  int workers = 2;
  std::size_t max_queue = 256;
  int per_client_in_flight = 1;
  /// Global budget pool (0 = unlimited) and per-request slice ceiling
  /// (0 = uncapped). A request's own deadline_ms is honored up to the cap.
  std::int64_t global_budget_ms = 0;
  std::int64_t per_request_deadline_ms = 0;
  /// Shared artifact store (nullptr = uncached). Configure the hot tier on
  /// it before start() for in-memory repeat hits.
  FlowCache* cache = nullptr;
  /// Base flow options for every request (k/flow are per-request).
  FlowOptions flow;
  /// Supervision knobs, as in BatchOptions.
  int max_attempts = 2;
  std::int64_t retry_backoff_ms = 10;
  /// Optional JSONL record stream (hardened via JsonlSink).
  std::ostream* jsonl = nullptr;
  /// Optional external shutdown signal, polled by a monitor thread: wire
  /// this to global_cancel_token() and install_sigterm_cancellation() and a
  /// service manager's SIGTERM drains the daemon. Not owned.
  const CancelToken* external_shutdown = nullptr;
  /// HTTP observability endpoint port (-1 = off, 0 = ephemeral; see
  /// http_port()). Serves /metrics, /healthz and /trace/<seq> — the
  /// endpoint stays up through the drain so readiness probes see the flip.
  int http_port = -1;
  /// Per-request trace handles: > 0 keeps each admitted request's TraceSink
  /// span tree (JSON schema v1) in a bounded in-memory ring of at most this
  /// many requests, retrievable via /trace/<seq> or trace_json(). The
  /// result reply echoes the handle as "trace":<seq>. 0 disables the ring;
  /// when disabled, flow.trace (one shared sink) keeps PR 8 behavior.
  std::size_t trace_ring_entries = 0;
  /// Byte cap on the ring's stored JSON (oldest evicted first).
  std::size_t trace_ring_bytes = std::size_t{4} << 20;
};

class MappingServer {
 public:
  explicit MappingServer(MappingServerOptions options);
  ~MappingServer();  // request_shutdown() + wait()

  MappingServer(const MappingServer&) = delete;
  MappingServer& operator=(const MappingServer&) = delete;

  /// Binds the socket and starts the accept/worker/monitor threads.
  /// Throws turbosyn::Error when the socket cannot be bound.
  void start();

  /// Begins the graceful drain (idempotent, any thread): the listener closes,
  /// queued requests report cancelled, running requests wind down.
  void request_shutdown();

  /// Blocks until the drain finishes and every thread has exited.
  void wait();

  bool draining() const;

  /// Bound HTTP endpoint port (after start(), when http_port was >= 0),
  /// else -1.
  int http_port() const;

  /// One consistent read of every exposed counter — the single source both
  /// stats_json() and the /metrics exposition render from.
  StatsSnapshot snapshot() const;

  /// The STATS aggregate: server counters, queue/budget state, cache
  /// counters (including the hot tier), probe-ledger and per-stage rollups,
  /// failpoint trigger counts, JSONL sink faults. One flat-ish JSON object
  /// (values may be nested objects; keys are stable). Equivalent to
  /// render_stats_json(snapshot()).
  std::string stats_json() const;

  /// Stored trace JSON for admission seq `seq` (trace_ring_entries > 0),
  /// or "" when the request never stored one / the ring evicted it.
  std::string trace_json(std::uint64_t seq) const;

  // Counters, exposed for tests and tsd's exit log.
  std::int64_t admitted() const { return admitted_.load(std::memory_order_relaxed); }
  std::int64_t completed() const { return completed_.load(std::memory_order_relaxed); }
  std::int64_t failed() const { return failed_.load(std::memory_order_relaxed); }
  std::int64_t cancelled() const { return cancelled_.load(std::memory_order_relaxed); }
  std::int64_t rejected() const { return rejected_.load(std::memory_order_relaxed); }
  std::int64_t poison_blocked() const {
    return poison_blocked_.load(std::memory_order_relaxed);
  }
  std::int64_t jsonl_faults() const;

 private:
  struct Connection {
    int fd = -1;
    int id = -1;
    std::string default_client;
    std::mutex write_mu;
    bool open = true;  // guarded by write_mu
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> conn);
  void worker_loop();
  void monitor_loop();

  void handle_line(const std::shared_ptr<Connection>& conn, const std::string& line);
  void handle_map(const std::shared_ptr<Connection>& conn, MapRequest request);
  /// Runs a popped ticket and returns its record; `traced` reports whether
  /// the request ran under its own trace sink.
  BatchRecord run_ticket(const AdmissionQueue::Ticket& ticket, bool& traced);
  /// Stores one finished request's trace JSON in the bounded ring (evicting
  /// oldest-first past the entry/byte caps) and rolls its counter totals
  /// into trace_totals_.
  void store_trace(std::uint64_t seq, const TraceSink& sink);
  /// Emits the record to the JSONL stream and, when the connection is still
  /// up, as a "result" reply. `traced` appends "trace":<seq> — the handle a
  /// client quotes back to /trace/<seq> or --trace-fetch. A `popped` ticket
  /// returns its in-flight slot before the reply goes on the wire, so a
  /// client that has read its result never sees the request still running.
  void emit_record(const AdmissionQueue::Ticket& ticket, const BatchRecord& record,
                   bool traced = false, bool popped = false);
  void send_reply(const std::shared_ptr<Connection>& conn, const std::string& line);
  /// send_reply's write, for a caller that already holds conn.write_mu.
  static void send_locked(Connection& conn, const std::string& line);
  std::shared_ptr<Connection> connection(int id) const;

  /// Poison key for a request: "blif:" + a hash of the netlist text.
  static std::string poison_key(const MapRequest& request);

  MappingServerOptions options_;
  std::unique_ptr<AdmissionQueue> queue_;
  std::unique_ptr<BudgetPool> pool_;
  std::unique_ptr<JsonlSink> sink_;
  std::unique_ptr<HttpEndpoint> http_;

  // Per-request trace ring (guarded by trace_mu_): completed requests'
  // serialized span trees, keyed by admission seq, bounded by the options'
  // entry and byte caps with oldest-first eviction. trace_totals_
  // accumulates every per-request sink's counter totals so STATS/metrics
  // still aggregate across requests the ring has already evicted.
  struct TraceHandle {
    std::uint64_t seq = 0;
    std::string json;
  };
  mutable std::mutex trace_mu_;
  // A deque scanned linearly on fetch: the ring holds at most
  // trace_ring_entries handles (tens, not thousands) and fetches are rare
  // relative to stores, so an index would buy nothing.
  std::deque<TraceHandle> trace_ring_;  // front = oldest
  std::size_t trace_ring_bytes_now_ = 0;
  std::int64_t traces_stored_ = 0;
  std::int64_t traces_evicted_ = 0;
  std::map<std::string, std::int64_t> trace_totals_;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::thread monitor_;

  // Open connections. Each reader thread is detached and erases its own
  // entry as it exits; conn_gone_ wakes wait() once the map is empty.
  mutable std::mutex conn_mu_;
  std::condition_variable conn_gone_;
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;
  int next_connection_id_ = 0;

  mutable std::mutex poison_mu_;
  std::unordered_set<std::string> poison_;

  // Per-stage rollups across finished requests (guarded by stats_mu_).
  mutable std::mutex stats_mu_;
  std::map<std::string, double> stage_seconds_;
  std::map<std::string, std::int64_t> stage_runs_;
  std::int64_t total_probes_ = 0;
  std::int64_t imported_probes_ = 0;
  double flow_seconds_ = 0.0;
  double hit_flow_seconds_ = 0.0;
  // Portfolio rollups (guarded by stats_mu_): races run and wins per engine.
  std::map<std::string, std::int64_t> portfolio_wins_;
  std::int64_t portfolio_runs_ = 0;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<std::int64_t> admitted_{0};
  std::atomic<std::int64_t> completed_{0};
  std::atomic<std::int64_t> failed_{0};
  std::atomic<std::int64_t> cancelled_{0};
  std::atomic<std::int64_t> rejected_{0};
  std::atomic<std::int64_t> poison_blocked_{0};
  std::atomic<std::int64_t> retries_{0};
};

}  // namespace turbosyn
