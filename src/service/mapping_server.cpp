#include "service/mapping_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string_view>
#include <utility>

#include "base/check.hpp"
#include "base/failpoint.hpp"
#include "base/flow_cli.hpp"
#include "base/json_util.hpp"
#include "netlist/canonical.hpp"

namespace turbosyn {
namespace {

using Clock = std::chrono::steady_clock;

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return std::string(buf);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

ParsedLine protocol_error(std::string message) {
  ParsedLine out;
  out.kind = ParsedLine::Kind::kError;
  out.error = std::move(message);
  return out;
}

}  // namespace

ParsedLine parse_protocol_line(const std::string& line) {
  const std::string_view s = trim(line);
  if (s.empty()) return protocol_error("empty request line");

  if (s[0] != '{') {
    // Bare verbs: STATS | PING | SHUTDOWN | CANCEL <id>.
    const std::size_t space = s.find(' ');
    const std::string_view verb = s.substr(0, space);
    const std::string_view rest =
        space == std::string_view::npos ? std::string_view{} : trim(s.substr(space + 1));
    ParsedLine out;
    if (verb == "STATS" && rest.empty()) {
      out.kind = ParsedLine::Kind::kStats;
      return out;
    }
    if (verb == "PING" && rest.empty()) {
      out.kind = ParsedLine::Kind::kPing;
      return out;
    }
    if (verb == "SHUTDOWN" && rest.empty()) {
      out.kind = ParsedLine::Kind::kShutdown;
      return out;
    }
    if (verb == "CANCEL") {
      long long id = 0;
      if (!parse_int_strict(rest, 0, std::numeric_limits<long long>::max() / 2, id)) {
        return protocol_error("CANCEL expects a non-negative integer id, got '" +
                              std::string(rest) + "'");
      }
      out.cancel_id = id;
      out.kind = ParsedLine::Kind::kCancel;
      return out;
    }
    return protocol_error("unknown verb '" + std::string(verb) +
                          "' (expected STATS, PING, CANCEL <id>, SHUTDOWN, or a JSON "
                          "request object)");
  }

  std::vector<std::pair<std::string, JsonScalar>> fields;
  std::string json_error;
  if (!parse_flat_json_object(s, fields, &json_error)) {
    return protocol_error("bad request JSON: " + json_error);
  }

  ParsedLine out;
  std::string op;
  bool has_id = false;
  for (auto& [key, value] : fields) {
    const auto want_string = [&](std::string* into) -> bool {
      if (value.kind != JsonScalar::Kind::kString) return false;
      *into = std::move(value.text);  // the inline BLIF is the bulk of a line
      return true;
    };
    if (key == "op") {
      if (!want_string(&op)) return protocol_error("field 'op': expected a string");
    } else if (key == "id") {
      long long id = 0;
      if (value.kind != JsonScalar::Kind::kNumber ||
          !parse_int_strict(value.text, 0, std::numeric_limits<long long>::max() / 2,
                            id)) {
        return protocol_error("field 'id': expected a non-negative integer, got '" +
                              value.text + "'");
      }
      out.map.id = id;
      has_id = true;
      out.cancel_id = out.map.id;
    } else if (key == "client") {
      if (!want_string(&out.map.client)) {
        return protocol_error("field 'client': expected a string");
      }
    } else if (key == "path") {
      if (!want_string(&out.map.path)) {
        return protocol_error("field 'path': expected a string");
      }
    } else if (key == "blif") {
      if (!want_string(&out.map.blif)) {
        return protocol_error("field 'blif': expected a string");
      }
    } else if (key == "flow") {
      if (value.kind != JsonScalar::Kind::kString ||
          !flow_kind_from_name(value.text, out.map.flow)) {
        return protocol_error(
            "field 'flow': expected turbomap|turbosyn|flowsyn_s|turbomap_period, got '" +
            value.text + "'");
      }
    } else if (key == "portfolio") {
      if (value.kind != JsonScalar::Kind::kString) {
        return protocol_error("field 'portfolio': expected a comma-separated engine list");
      }
      std::vector<const EngineSpec*> engines;
      if (const std::string invalid = parse_portfolio(value.text, engines);
          !invalid.empty()) {
        return protocol_error("field 'portfolio': " + invalid);
      }
      out.map.portfolio.clear();
      for (const EngineSpec* spec : engines) out.map.portfolio.push_back(spec->name);
    } else if (key == "priority") {
      if (value.kind != JsonScalar::Kind::kString ||
          (value.text != "high" && value.text != "normal")) {
        return protocol_error("field 'priority': expected \"high\" or \"normal\", got '" +
                              value.text + "'");
      }
      out.map.high_priority = value.text == "high";
    } else if (key == "k") {
      if (value.kind != JsonScalar::Kind::kNumber ||
          !parse_int_strict(value.text, 2, 32, out.map.k)) {
        return protocol_error("field 'k': expected an integer in [2, 32], got '" +
                              value.text + "'");
      }
    } else if (key == "deadline_ms") {
      long long deadline = 0;
      if (value.kind != JsonScalar::Kind::kNumber ||
          !parse_int_strict(value.text, 0, 1LL << 40, deadline)) {
        return protocol_error(
            "field 'deadline_ms': expected a non-negative integer, got '" + value.text +
            "'");
      }
      out.map.deadline_ms = deadline;
    } else {
      return protocol_error("unknown field '" + key + "'");
    }
  }

  if (op == "map") {
    if (out.map.blif.empty() && out.map.path.empty()) {
      return protocol_error("map request needs 'blif' (inline netlist) or 'path'");
    }
    out.kind = ParsedLine::Kind::kMap;
  } else if (op == "stats") {
    out.kind = ParsedLine::Kind::kStats;
  } else if (op == "ping") {
    out.kind = ParsedLine::Kind::kPing;
  } else if (op == "shutdown") {
    out.kind = ParsedLine::Kind::kShutdown;
  } else if (op == "cancel") {
    if (!has_id) return protocol_error("cancel request needs 'id'");
    out.kind = ParsedLine::Kind::kCancel;
  } else {
    return protocol_error("field 'op': expected map|stats|ping|cancel|shutdown, got '" +
                          op + "'");
  }
  return out;
}

// ---------------------------------------------------------------- queue ----

AdmissionQueue::AdmissionQueue(std::size_t max_depth, int per_client)
    : max_depth_(std::max<std::size_t>(1, max_depth)),
      per_client_(std::max(1, per_client)) {}

bool AdmissionQueue::push(Ticket ticket) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || depth_ >= max_depth_) return false;
    const std::string& client = ticket.request.client;
    auto [it, inserted] = queues_.try_emplace(client);
    if (inserted) round_robin_.push_back(client);
    const bool high = ticket.request.high_priority;
    (high ? it->second.high : it->second.normal).push_back(std::move(ticket));
    ++depth_;
    if (high) ++high_depth_;
  }
  ready_.notify_one();
  return true;
}

std::optional<AdmissionQueue::Ticket> AdmissionQueue::pop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (closed_) return std::nullopt;
    const std::size_t n = round_robin_.size();
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t idx = (rr_cursor_ + step) % n;
      const std::string& client = round_robin_[idx];
      const auto qit = queues_.find(client);
      if (qit == queues_.end() || qit->second.empty()) continue;
      if (in_flight_[client] >= per_client_) continue;
      // 3:1 weighted round-robin between this client's two bands: the high
      // sub-queue is served unless it just took three pops in a row while
      // normal work waited. One band empty hands the turn to the other
      // (serving high when normal is empty still charges the grant counter,
      // so a later normal arrival waits at most the remaining grants).
      ClientQueues& bands = qit->second;
      const bool serve_high =
          !bands.high.empty() && (bands.high_grants < 3 || bands.normal.empty());
      std::deque<Ticket>& band = serve_high ? bands.high : bands.normal;
      if (serve_high) {
        ++bands.high_grants;
        ++high_served_;
        --high_depth_;
      } else {
        bands.high_grants = 0;
        ++normal_served_;
      }
      Ticket ticket = std::move(band.front());
      band.pop_front();
      --depth_;
      ++in_flight_[client];
      running_[{client, ticket.request.id}] = ticket.cancel;
      // Resume the next scan just past the served client, so every client
      // with pending work gets a turn before anyone gets a second one.
      rr_cursor_ = (idx + 1) % n;
      return ticket;
    }
    ready_.wait(lock);
  }
}

void AdmissionQueue::complete(const std::string& client, std::int64_t id) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = in_flight_.find(client);
    if (it != in_flight_.end() && it->second > 0) --it->second;
    running_.erase({client, id});
  }
  // A freed in-flight slot can make a queued ticket eligible.
  ready_.notify_all();
}

void AdmissionQueue::close() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  ready_.notify_all();
}

bool AdmissionQueue::closed() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::vector<AdmissionQueue::Ticket> AdmissionQueue::drain() {
  std::vector<Ticket> out;
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [client, bands] : queues_) {
    for (Ticket& ticket : bands.high) out.push_back(std::move(ticket));
    for (Ticket& ticket : bands.normal) out.push_back(std::move(ticket));
    bands.high.clear();
    bands.normal.clear();
  }
  depth_ = 0;
  high_depth_ = 0;
  std::sort(out.begin(), out.end(),
            [](const Ticket& a, const Ticket& b) { return a.seq < b.seq; });
  return out;
}

bool AdmissionQueue::cancel(const std::string& client, std::int64_t id) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (const auto qit = queues_.find(client); qit != queues_.end()) {
    for (std::deque<Ticket>* band : {&qit->second.high, &qit->second.normal}) {
      for (Ticket& ticket : *band) {
        if (ticket.request.id == id) {
          // The ticket stays queued: the worker that pops it observes the
          // token and reports cancelled without running, so the admission is
          // still answered by exactly one record.
          ticket.cancel->cancel();
          return true;
        }
      }
    }
  }
  if (const auto rit = running_.find({client, id}); rit != running_.end()) {
    rit->second->cancel();
    return true;
  }
  return false;
}

void AdmissionQueue::cancel_all() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [client, bands] : queues_) {
    for (Ticket& ticket : bands.high) ticket.cancel->cancel();
    for (Ticket& ticket : bands.normal) ticket.cancel->cancel();
  }
  for (auto& [key, token] : running_) token->cancel();
}

std::size_t AdmissionQueue::depth() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return depth_;
}

int AdmissionQueue::in_flight() const {
  const std::lock_guard<std::mutex> lock(mu_);
  int total = 0;
  for (const auto& [client, count] : in_flight_) total += count;
  return total;
}

std::int64_t AdmissionQueue::high_served() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return high_served_;
}

std::int64_t AdmissionQueue::normal_served() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return normal_served_;
}

std::size_t AdmissionQueue::high_depth() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return high_depth_;
}

// BudgetPool lives in base/run_budget.cpp since PR 9.

// --------------------------------------------------------------- server ----

namespace {

/// Binds a Unix-domain stream listener at `path` (re-binding over a stale
/// socket file). Returns -1 with `error` set on failure.
int bind_unix_listener(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + path;
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket(AF_UNIX): ") + std::strerror(errno);
    return -1;
  }
  ::unlink(path.c_str());
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    *error = "bind/listen(" + path + "): " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Binds a TCP loopback listener (port 0 = ephemeral); reports the bound
/// port through `bound_port`. Returns -1 with `error` set on failure.
int bind_tcp_listener(int port, int* bound_port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket(AF_INET): ") + std::strerror(errno);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    *error = "bind/listen(127.0.0.1:" + std::to_string(port) +
             "): " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

/// The record path of an admitted request: its file path, or for inline
/// BLIF the "blif:<hash>" poison key computed at admission.
const std::string& record_path(const AdmissionQueue::Ticket& ticket) {
  return ticket.request.blif.empty() ? ticket.request.path : ticket.poison_key;
}

BatchRecord request_shell_record(const MapRequest& request, const std::string& display_path) {
  BatchRecord record;
  record.name = request.client + "#" + std::to_string(request.id);
  record.path = display_path;
  record.flow = request.flow;
  record.k = request.k;
  return record;
}

}  // namespace

MappingServer::MappingServer(MappingServerOptions options) : options_(std::move(options)) {
  queue_ = std::make_unique<AdmissionQueue>(options_.max_queue,
                                            options_.per_client_in_flight);
  pool_ = std::make_unique<BudgetPool>(options_.global_budget_ms,
                                       options_.per_request_deadline_ms);
  sink_ = std::make_unique<JsonlSink>(options_.jsonl);
}

MappingServer::~MappingServer() {
  request_shutdown();
  wait();
}

std::string MappingServer::poison_key(const MapRequest& request) {
  if (!request.blif.empty()) return "blif:" + hex64(fnv1a64(request.blif));
  std::error_code ec;
  const std::filesystem::path canonical = std::filesystem::weakly_canonical(request.path, ec);
  return "path:" + (ec ? request.path : canonical.string());
}

std::int64_t MappingServer::jsonl_faults() const { return sink_->faults(); }

void MappingServer::start() {
  TS_CHECK(!started_.exchange(true), "MappingServer::start() called twice");
  TS_CHECK(!options_.socket_path.empty() || options_.tcp_port >= 0,
           "MappingServer needs a unix socket path or a TCP port");
  std::string error;
  if (!options_.socket_path.empty()) {
    const int fd = bind_unix_listener(options_.socket_path, &error);
    TS_CHECK(fd >= 0, error);
    listen_fds_.push_back(fd);
  }
  if (options_.tcp_port >= 0) {
    const int fd = bind_tcp_listener(options_.tcp_port, &tcp_port_bound_, &error);
    if (fd < 0) {
      for (const int open_fd : listen_fds_) ::close(open_fd);
      listen_fds_.clear();
      throw Error(error);
    }
    listen_fds_.push_back(fd);
  }
  for (const int fd : listen_fds_) {
    accept_threads_.emplace_back([this, fd] { accept_loop(fd); });
  }
  const int workers = std::max(1, options_.workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  monitor_ = std::thread([this] { monitor_loop(); });
  if (options_.http_port >= 0) {
    HttpEndpoint::Handlers handlers;
    handlers.metrics = [this] { return render_prometheus(snapshot()); };
    handlers.ready = [this] { return !draining_.load(std::memory_order_relaxed); };
    handlers.trace = [this](std::uint64_t seq) { return trace_json(seq); };
    http_ = std::make_unique<HttpEndpoint>(options_.http_port, std::move(handlers));
    try {
      http_->start();
    } catch (...) {
      // The line protocol is already live; unwind it before rethrowing so
      // the caller never sees a half-started server.
      http_.reset();
      request_shutdown();
      wait();
      throw;
    }
  }
}

int MappingServer::port() const { return tcp_port_bound_; }

int MappingServer::http_port() const { return http_ != nullptr ? http_->port() : -1; }

bool MappingServer::draining() const { return draining_.load(std::memory_order_relaxed); }

void MappingServer::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (drain) or fatally broken
    }
    if (draining_.load(std::memory_order_relaxed)) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      const std::lock_guard<std::mutex> lock(conn_mu_);
      conn->id = next_connection_id_++;
      conn->default_client = "conn-" + std::to_string(conn->id);
      connections_[conn->id] = conn;
    }
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  }
}

void MappingServer::reader_loop(std::shared_ptr<Connection> conn) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      handle_line(conn, buffer.substr(start, nl - start));
      start = nl + 1;
    }
    buffer.erase(0, start);
    // A flood of unterminated bytes is a broken or hostile peer, not a
    // request. 64 MiB comfortably fits any realistic inline netlist.
    if (buffer.size() > (std::size_t{64} << 20)) break;
  }
  const std::lock_guard<std::mutex> lock(conn->write_mu);
  conn->open = false;
  ::close(conn->fd);
  conn->fd = -1;
}

void MappingServer::send_reply(const std::shared_ptr<Connection>& conn,
                               const std::string& line) {
  if (conn == nullptr) return;
  const std::lock_guard<std::mutex> lock(conn->write_mu);
  send_locked(*conn, line);
}

void MappingServer::send_locked(Connection& conn, const std::string& line) {
  if (!conn.open || conn.fd < 0) return;
  std::string framed = line;
  framed += '\n';
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n =
        ::send(conn.fd, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      conn.open = false;  // the peer is gone; records still reach the JSONL
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::shared_ptr<MappingServer::Connection> MappingServer::connection(int id) const {
  const std::lock_guard<std::mutex> lock(conn_mu_);
  const auto it = connections_.find(id);
  return it == connections_.end() ? nullptr : it->second;
}

void MappingServer::handle_line(const std::shared_ptr<Connection>& conn,
                                const std::string& line) {
  if (trim(line).empty()) return;  // blank keep-alives are not errors
  ParsedLine parsed = parse_protocol_line(line);
  switch (parsed.kind) {
    case ParsedLine::Kind::kError: {
      std::string reply = "{\"reply\":\"error\",\"error\":";
      json_append_string(reply, parsed.error);
      reply += "}";
      send_reply(conn, reply);
      return;
    }
    case ParsedLine::Kind::kPing:
      send_reply(conn, "{\"reply\":\"pong\"}");
      return;
    case ParsedLine::Kind::kStats:
      send_reply(conn, stats_json());
      return;
    case ParsedLine::Kind::kShutdown:
      send_reply(conn, "{\"reply\":\"shutdown\",\"draining\":true}");
      request_shutdown();
      return;
    case ParsedLine::Kind::kCancel: {
      const std::string client =
          parsed.map.client.empty() ? conn->default_client : parsed.map.client;
      const bool found = queue_->cancel(client, parsed.cancel_id);
      std::string reply = "{\"reply\":\"cancel\",\"id\":" + std::to_string(parsed.cancel_id) +
                          ",\"found\":";
      reply += found ? "true" : "false";
      reply += "}";
      send_reply(conn, reply);
      return;
    }
    case ParsedLine::Kind::kMap:
      if (parsed.map.client.empty()) parsed.map.client = conn->default_client;
      handle_map(conn, std::move(parsed.map));
      return;
  }
}

void MappingServer::handle_map(const std::shared_ptr<Connection>& conn,
                               MapRequest request) {
  AdmissionQueue::Ticket ticket;
  ticket.poison_key = poison_key(request);
  ticket.request = std::move(request);
  ticket.connection = conn != nullptr ? conn->id : -1;
  {
    const std::lock_guard<std::mutex> lock(poison_mu_);
    if (poison_.count(ticket.poison_key) > 0) {
      // Resubmission of a quarantined circuit: answered immediately, never
      // re-run — the whole point of the poison list.
      poison_blocked_.fetch_add(1, std::memory_order_relaxed);
      BatchRecord record = request_shell_record(ticket.request, record_path(ticket));
      record.status = Status::kFailed;
      record.quarantined = true;
      record.attempts = 0;
      record.error = "circuit is quarantined (failed deterministically in an earlier run)";
      emit_record(ticket, record);
      return;
    }
  }
  const std::int64_t id = ticket.request.id;
  if (draining_.load(std::memory_order_relaxed)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    std::string reply = "{\"reply\":\"error\",\"id\":" + std::to_string(id) +
                        ",\"error\":\"server is draining\"}";
    send_reply(conn, reply);
    return;
  }
  ticket.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  ticket.cancel = std::make_shared<CancelToken>();
  // The ack goes out before the result can: a worker may finish a hot-tier
  // hit before this thread writes "queued", so the connection's write lock
  // is held from push to ack and the worker's result reply waits for it.
  std::unique_lock<std::mutex> write_lock;
  if (conn != nullptr) write_lock = std::unique_lock<std::mutex>(conn->write_mu);
  const bool admitted = queue_->push(std::move(ticket));
  std::string reply;
  if (admitted) {
    admitted_.fetch_add(1, std::memory_order_relaxed);
    reply = "{\"reply\":\"queued\",\"id\":" + std::to_string(id) +
            ",\"queue_depth\":" + std::to_string(queue_->depth()) + "}";
  } else {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    reply = "{\"reply\":\"error\",\"id\":" + std::to_string(id) +
            ",\"error\":\"admission queue is full\"}";
  }
  if (conn != nullptr) send_locked(*conn, reply);
}

void MappingServer::worker_loop() {
  while (std::optional<AdmissionQueue::Ticket> ticket = queue_->pop()) {
    bool traced = false;
    const BatchRecord record = run_ticket(*ticket, traced);
    emit_record(*ticket, record, traced, /*popped=*/true);
  }
}

BatchRecord MappingServer::run_ticket(const AdmissionQueue::Ticket& ticket, bool& traced) {
  const MapRequest& request = ticket.request;
  const std::string& path = record_path(ticket);

  if (ticket.cancel->cancelled()) {
    // Cancelled while queued (CANCEL verb or drain): one honest record,
    // zero compute.
    BatchRecord record = request_shell_record(request, path);
    record.skipped = true;
    record.status = Status::kCancelled;
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    return record;
  }

  BatchJob job;
  job.name = request.client + "#" + std::to_string(request.id);
  job.path = path;
  job.blif = request.blif;
  job.flow = request.flow;
  job.portfolio = request.portfolio;
  job.k = request.k;

  BatchOptions options;
  options.flow = options_.flow;
  options.cache = options_.cache;
  options.max_attempts = options_.max_attempts;
  options.retry_backoff_ms = options_.retry_backoff_ms;
  options.cancel = ticket.cancel.get();
  const std::int64_t carved = pool_->carve(request.deadline_ms);
  options.per_circuit_deadline_ms = carved;

  // Per-request trace handle: with the ring enabled, this request runs
  // against its own sink so its span tree is retrievable in isolation via
  // /trace/<seq> — the shared options_.flow.trace sink (if any) is NOT also
  // fed, or every span would be double-counted in the merged totals.
  std::unique_ptr<TraceSink> request_trace;
  if (options_.trace_ring_entries > 0) {
    request_trace = std::make_unique<TraceSink>();
    options.flow.trace = request_trace.get();
  }

  const auto start = Clock::now();
  int retries = 0;
  BatchRecord record = run_supervised_job(job, options, &retries);
  retries_.fetch_add(retries, std::memory_order_relaxed);
  const auto used_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - start).count();
  pool_->refund(carved, used_ms);

  if (record.quarantined) {
    const std::lock_guard<std::mutex> lock(poison_mu_);
    poison_.insert(ticket.poison_key);
  }
  if (record.skipped || record.status == Status::kCancelled) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
  } else if (record.ok && record.status != Status::kFailed) {
    completed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    total_probes_ += record.probes;
    imported_probes_ += record.imported_probes;
    flow_seconds_ += record.seconds;
    if (record.cache_hit) hit_flow_seconds_ += record.seconds;
    for (const StageMetric& stage : record.stage_metrics.stages) {
      stage_seconds_[stage.name] += stage.seconds;
      stage_runs_[stage.name] += 1;
    }
    if (!record.engine.empty()) {
      ++portfolio_runs_;
      ++portfolio_wins_[record.engine];
    }
  }
  traced = request_trace != nullptr;
  if (traced) store_trace(ticket.seq, *request_trace);
  return record;
}

void MappingServer::store_trace(std::uint64_t seq, const TraceSink& sink) {
  std::string json = sink.to_json();
  const std::lock_guard<std::mutex> lock(trace_mu_);
  // Totals survive eviction: the aggregate view (STATS "trace", /metrics
  // ts_trace_counter_total) covers every request ever traced, while the
  // ring bounds only the retrievable span trees.
  for (const auto& [name, value] : sink.totals()) trace_totals_[name] += value;
  if (json.size() > options_.trace_ring_bytes) return;  // would evict everything
  trace_ring_bytes_now_ += json.size();
  trace_ring_.push_back(TraceHandle{seq, std::move(json)});
  ++traces_stored_;
  while (trace_ring_.size() > options_.trace_ring_entries ||
         trace_ring_bytes_now_ > options_.trace_ring_bytes) {
    trace_ring_bytes_now_ -= trace_ring_.front().json.size();
    trace_ring_.pop_front();
    ++traces_evicted_;
  }
}

std::string MappingServer::trace_json(std::uint64_t seq) const {
  const std::lock_guard<std::mutex> lock(trace_mu_);
  for (const TraceHandle& handle : trace_ring_) {
    if (handle.seq == seq) return handle.json;
  }
  return {};
}

void MappingServer::emit_record(const AdmissionQueue::Ticket& ticket,
                                const BatchRecord& record, bool traced, bool popped) {
  const std::string body = batch_record_json(record);  // "{...}"
  // The trace handle (when this request ran under the ring) rides in both
  // envelopes: "trace":<seq> is what a client quotes back to /trace/<seq>.
  const std::string trace_field =
      traced ? ",\"trace\":" + std::to_string(ticket.seq) : std::string();
  // The JSONL record and the wire reply share the record body byte for
  // byte; only the envelope differs.
  std::string jsonl_line = "{\"seq\":" + std::to_string(ticket.seq) +
                           ",\"id\":" + std::to_string(ticket.request.id) +
                           ",\"client\":";
  json_append_string(jsonl_line, ticket.request.client);
  jsonl_line += trace_field;
  jsonl_line += ",";
  jsonl_line += body.substr(1);
  sink_->write(jsonl_line);

  std::string reply = "{\"reply\":\"result\",\"id\":" + std::to_string(ticket.request.id) +
                      ",\"client\":";
  json_append_string(reply, ticket.request.client);
  reply += trace_field;
  reply += ",";
  reply += body.substr(1);
  const std::shared_ptr<Connection> conn = connection(ticket.connection);
  // The slot is freed under the write lock: the next ticket of the same
  // client can then run, but its reply cannot overtake this one.
  std::unique_lock<std::mutex> write_lock;
  if (conn != nullptr) write_lock = std::unique_lock<std::mutex>(conn->write_mu);
  if (popped) queue_->complete(ticket.request.client, ticket.request.id);
  if (conn != nullptr) send_locked(*conn, reply);
}

void MappingServer::monitor_loop() {
  while (!draining_.load(std::memory_order_relaxed)) {
    if (options_.external_shutdown != nullptr && options_.external_shutdown->cancelled()) {
      request_shutdown();
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

void MappingServer::request_shutdown() {
  if (draining_.exchange(true)) return;
  if (!started_.load(std::memory_order_relaxed)) return;
  // 1. Stop the intake: closed listeners end the accept loops, a closed
  //    queue ends the workers once their current request finishes.
  for (const int fd : listen_fds_) ::shutdown(fd, SHUT_RDWR);
  // 2. Cancel everything queued or running — running flows wind down to
  //    best-so-far under their budgets' cancel checks.
  queue_->cancel_all();
  queue_->close();
  // 3. Every still-queued admission gets its record now: the JSONL stream
  //    stays complete across the drain (the fork drill asserts exactly
  //    this), and connected clients hear why their request ended.
  for (AdmissionQueue::Ticket& ticket : queue_->drain()) {
    BatchRecord record = request_shell_record(ticket.request, record_path(ticket));
    record.skipped = true;
    record.status = Status::kCancelled;
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    emit_record(ticket, record);
  }
}

void MappingServer::wait() {
  if (!started_.load(std::memory_order_relaxed)) return;
  if (drained_.exchange(true)) return;
  for (std::thread& t : accept_threads_) {
    if (t.joinable()) t.join();
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  if (monitor_.joinable()) monitor_.join();
  // Readers block in read(): shut the sockets down to unblock them, then
  // join. The fds themselves are closed by each reader as it exits.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    const std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& [id, conn] : connections_) conns.push_back(conn);
  }
  for (const auto& conn : conns) {
    const std::lock_guard<std::mutex> lock(conn->write_mu);
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (const auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  for (const int fd : listen_fds_) ::close(fd);
  listen_fds_.clear();
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
  // The HTTP endpoint goes down last: /healthz keeps answering 503 through
  // the whole drain (that flip is what a readiness probe watches for) and
  // /trace stays fetchable until every record has been emitted.
  if (http_ != nullptr) http_->stop();
}

StatsSnapshot MappingServer::snapshot() const {
  StatsSnapshot snap;
  snap.admitted = admitted();
  snap.completed = completed();
  snap.failed = failed();
  snap.cancelled = cancelled();
  snap.rejected = rejected();
  snap.poison_blocked = poison_blocked();
  snap.retries = retries_.load(std::memory_order_relaxed);
  snap.queue_depth = static_cast<std::int64_t>(queue_->depth());
  snap.in_flight = queue_->in_flight();
  snap.high_queued = static_cast<std::int64_t>(queue_->high_depth());
  snap.high_served = queue_->high_served();
  snap.normal_served = queue_->normal_served();
  snap.workers = std::max(1, options_.workers);
  snap.draining = draining();
  snap.jsonl_faults = jsonl_faults();
  snap.budget_total_ms = pool_->total();
  snap.budget_remaining_ms = pool_->remaining();
  if (options_.cache != nullptr) {
    const FlowCache& cache = *options_.cache;
    snap.has_cache = true;
    snap.cache_hits = cache.hits();
    snap.cache_misses = cache.misses();
    snap.cache_stores = cache.stores();
    snap.cache_rejects = cache.rejects();
    snap.cache_recovered_entries = cache.recovered_entries();
    snap.cache_recovered_tmp = cache.recovered_tmp();
    snap.cache_store_retries = cache.retries();
    snap.hot_hits = cache.hot_hits();
    snap.hot_evictions = cache.hot_evictions();
    snap.hot_cost_evictions = cache.hot_cost_evictions();
    snap.hot_cost_retained_seconds = cache.hot_cost_retained_seconds();
    snap.hot_entries = cache.hot_entries();
    snap.hot_bytes = cache.hot_bytes();
    snap.hot_policy = hot_policy_name(cache.hot_policy());
  }
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    snap.portfolio_runs = portfolio_runs_;
    snap.portfolio_wins = portfolio_wins_;
    snap.total_probes = total_probes_;
    snap.imported_probes = imported_probes_;
    snap.flow_seconds = flow_seconds_;
    snap.hit_flow_seconds = hit_flow_seconds_;
    for (const auto& [name, seconds] : stage_seconds_) {
      const auto runs = stage_runs_.find(name);
      snap.stages[name] =
          StatsSnapshot::StageStat{seconds, runs == stage_runs_.end() ? 0 : runs->second};
    }
  }
  for (const auto& [site, count] : failpoint::trigger_counts()) {
    snap.failpoints[site] = count;
  }
  // Trace totals: the shared sink (ring disabled) and the accumulated
  // per-request totals (ring enabled) merge into one view — exactly one of
  // the two sources is populated for any given request.
  if (options_.flow.trace != nullptr) {
    snap.has_trace = true;
    snap.trace_totals = options_.flow.trace->totals();
  }
  {
    const std::lock_guard<std::mutex> lock(trace_mu_);
    if (options_.trace_ring_entries > 0) {
      snap.has_trace = true;
      snap.has_trace_ring = true;
      for (const auto& [name, value] : trace_totals_) snap.trace_totals[name] += value;
      snap.traces_stored = traces_stored_;
      snap.traces_evicted = traces_evicted_;
      snap.trace_ring_entries = static_cast<std::int64_t>(trace_ring_.size());
      snap.trace_ring_bytes = static_cast<std::int64_t>(trace_ring_bytes_now_);
    }
  }
  return snap;
}

std::string MappingServer::stats_json() const { return render_stats_json(snapshot()); }

std::string render_stats_json(const StatsSnapshot& snap) {
  std::string s = "{\"reply\":\"stats\",\"server\":{";
  s += "\"admitted\":" + std::to_string(snap.admitted);
  s += ",\"completed\":" + std::to_string(snap.completed);
  s += ",\"failed\":" + std::to_string(snap.failed);
  s += ",\"cancelled\":" + std::to_string(snap.cancelled);
  s += ",\"rejected\":" + std::to_string(snap.rejected);
  s += ",\"poison_blocked\":" + std::to_string(snap.poison_blocked);
  s += ",\"retries\":" + std::to_string(snap.retries);
  s += ",\"queue_depth\":" + std::to_string(snap.queue_depth);
  s += ",\"in_flight\":" + std::to_string(snap.in_flight);
  s += ",\"high_queued\":" + std::to_string(snap.high_queued);
  s += ",\"high_served\":" + std::to_string(snap.high_served);
  s += ",\"normal_served\":" + std::to_string(snap.normal_served);
  s += ",\"workers\":" + std::to_string(snap.workers);
  s += ",\"draining\":";
  s += snap.draining ? "true" : "false";
  s += ",\"jsonl_faults\":" + std::to_string(snap.jsonl_faults);
  s += "},\"budget\":{\"total_ms\":" + std::to_string(snap.budget_total_ms);
  s += ",\"remaining_ms\":" + std::to_string(snap.budget_remaining_ms);
  s += "}";
  if (snap.has_cache) {
    s += ",\"cache\":{";
    s += "\"hits\":" + std::to_string(snap.cache_hits);
    s += ",\"misses\":" + std::to_string(snap.cache_misses);
    s += ",\"stores\":" + std::to_string(snap.cache_stores);
    s += ",\"rejects\":" + std::to_string(snap.cache_rejects);
    s += ",\"near_hits\":" + std::to_string(snap.cache_near_hits);
    s += ",\"recovered_entries\":" + std::to_string(snap.cache_recovered_entries);
    s += ",\"recovered_tmp\":" + std::to_string(snap.cache_recovered_tmp);
    s += ",\"store_retries\":" + std::to_string(snap.cache_store_retries);
    s += ",\"hot_hits\":" + std::to_string(snap.hot_hits);
    s += ",\"hot_evictions\":" + std::to_string(snap.hot_evictions);
    s += ",\"hot_cost_evictions\":" + std::to_string(snap.hot_cost_evictions);
    s += ",\"hot_cost_retained_seconds\":" + json_double(snap.hot_cost_retained_seconds);
    s += ",\"hot_entries\":" + std::to_string(snap.hot_entries);
    s += ",\"hot_bytes\":" + std::to_string(snap.hot_bytes);
    s += ",\"hot_policy\":";
    json_append_string(s, snap.hot_policy);
    s += "}";
  }
  s += ",\"portfolio\":{\"runs\":" + std::to_string(snap.portfolio_runs);
  s += ",\"wins\":{";
  bool first_win = true;
  for (const auto& [engine, wins] : snap.portfolio_wins) {
    if (!first_win) s += ",";
    first_win = false;
    json_append_string(s, engine);
    s += ":" + std::to_string(wins);
  }
  s += "}}";
  s += ",\"ledger\":{\"probes\":" + std::to_string(snap.total_probes);
  s += ",\"imported_probes\":" + std::to_string(snap.imported_probes);
  s += "},\"flow_seconds\":" + json_double(snap.flow_seconds);
  s += ",\"hit_flow_seconds\":" + json_double(snap.hit_flow_seconds);
  s += ",\"stages\":{";
  bool first = true;
  for (const auto& [name, stage] : snap.stages) {
    if (!first) s += ",";
    first = false;
    json_append_string(s, name);
    s += ":{\"seconds\":" + json_double(stage.seconds);
    s += ",\"runs\":" + std::to_string(stage.runs) + "}";
  }
  s += "}";
  s += ",\"failpoints\":{";
  first = true;
  for (const auto& [site, count] : snap.failpoints) {
    if (!first) s += ",";
    first = false;
    json_append_string(s, site);
    s += ":" + std::to_string(count);
  }
  s += "}";
  if (snap.has_trace) {
    s += ",\"trace\":{";
    first = true;
    for (const auto& [name, value] : snap.trace_totals) {
      if (!first) s += ",";
      first = false;
      json_append_string(s, name);
      s += ":" + std::to_string(value);
    }
    s += "}";
  }
  if (snap.has_trace_ring) {
    s += ",\"trace_ring\":{\"stored\":" + std::to_string(snap.traces_stored);
    s += ",\"evicted\":" + std::to_string(snap.traces_evicted);
    s += ",\"entries\":" + std::to_string(snap.trace_ring_entries);
    s += ",\"bytes\":" + std::to_string(snap.trace_ring_bytes);
    s += "}";
  }
  s += "}";
  return s;
}

namespace {

/// One exposition family: # HELP, # TYPE, then the sample line(s). The
/// emitters below guarantee promlint.py's invariants by construction —
/// every family declared exactly once, counters suffixed _total, samples
/// immediately after their TYPE line.
void prom_family(std::string& out, const char* name, const char* help, const char* type) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

void prom_sample(std::string& out, const char* name, std::int64_t value) {
  out += name;
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

void prom_sample(std::string& out, const char* name, double value) {
  out += name;
  out += ' ';
  out += json_double(value);
  out += '\n';
}

void prom_counter(std::string& out, const char* name, const char* help,
                  std::int64_t value) {
  prom_family(out, name, help, "counter");
  prom_sample(out, name, value);
}

void prom_gauge(std::string& out, const char* name, const char* help, std::int64_t value) {
  prom_family(out, name, help, "gauge");
  prom_sample(out, name, value);
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
std::string prom_label_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string render_prometheus(const StatsSnapshot& snap) {
  std::string out;
  out.reserve(4096);
  prom_counter(out, "ts_server_admitted_total", "Requests admitted to the queue.",
               snap.admitted);
  prom_counter(out, "ts_server_completed_total", "Requests finished successfully.",
               snap.completed);
  prom_counter(out, "ts_server_failed_total", "Requests that failed or quarantined.",
               snap.failed);
  prom_counter(out, "ts_server_cancelled_total", "Requests cancelled or drained.",
               snap.cancelled);
  prom_counter(out, "ts_server_rejected_total",
               "Requests rejected at admission (full queue or draining).", snap.rejected);
  prom_counter(out, "ts_server_poison_blocked_total",
               "Resubmissions of quarantined circuits answered without running.",
               snap.poison_blocked);
  prom_counter(out, "ts_server_retries_total",
               "Supervised attempt retries across all requests.", snap.retries);
  prom_gauge(out, "ts_server_workers", "Configured worker lanes.", snap.workers);
  prom_gauge(out, "ts_server_draining",
             "1 while the graceful drain is in progress, else 0.",
             snap.draining ? 1 : 0);
  prom_counter(out, "ts_server_jsonl_faults_total",
               "JSONL sink write faults absorbed.", snap.jsonl_faults);
  prom_gauge(out, "ts_queue_depth", "Tickets queued, not yet popped.", snap.queue_depth);
  prom_gauge(out, "ts_queue_in_flight", "Tickets popped and running.", snap.in_flight);
  prom_gauge(out, "ts_queue_high_depth", "Queued high-priority tickets.",
             snap.high_queued);
  prom_counter(out, "ts_queue_high_served_total",
               "Tickets served from high-priority sub-queues.", snap.high_served);
  prom_counter(out, "ts_queue_normal_served_total",
               "Tickets served from normal sub-queues.", snap.normal_served);
  prom_gauge(out, "ts_budget_total_ms", "Global budget pool size (0 = unlimited).",
             snap.budget_total_ms);
  prom_gauge(out, "ts_budget_remaining_ms", "Budget pool milliseconds left.",
             snap.budget_remaining_ms);

  if (snap.has_cache) {
    prom_counter(out, "ts_cache_hits_total", "FlowCache lookup hits.", snap.cache_hits);
    prom_counter(out, "ts_cache_misses_total", "FlowCache lookup misses.",
                 snap.cache_misses);
    prom_counter(out, "ts_cache_stores_total", "Entries persisted.", snap.cache_stores);
    prom_counter(out, "ts_cache_rejects_total",
                 "Unstorable (quarantined/degraded) results refused.", snap.cache_rejects);
    prom_counter(out, "ts_cache_near_hits_total",
                 "Near-miss warm-start donors served (always 0).", snap.cache_near_hits);
    prom_counter(out, "ts_cache_recovered_entries_total",
                 "Torn or corrupt entries detected and absorbed.",
                 snap.cache_recovered_entries);
    prom_counter(out, "ts_cache_recovered_tmp_total",
                 "Stray tmp files garbage-collected.", snap.cache_recovered_tmp);
    prom_counter(out, "ts_cache_store_retries_total",
                 "Store attempts re-run after transient failures.",
                 snap.cache_store_retries);
    prom_counter(out, "ts_cache_hot_hits_total",
                 "Hits served from the in-memory hot tier.", snap.hot_hits);
    prom_counter(out, "ts_cache_hot_evictions_total", "Hot-tier entries evicted.",
                 snap.hot_evictions);
    prom_counter(out, "ts_cache_hot_cost_evictions_total",
                 "Evictions where the cost-aware score overrode LRU order.",
                 snap.hot_cost_evictions);
    prom_family(out, "ts_cache_hot_cost_retained_seconds_total",
                "Flow wall seconds kept resident by cost-aware eviction.", "counter");
    prom_sample(out, "ts_cache_hot_cost_retained_seconds_total",
                snap.hot_cost_retained_seconds);
    prom_gauge(out, "ts_cache_hot_entries", "Hot-tier entries resident.",
               snap.hot_entries);
    prom_gauge(out, "ts_cache_hot_bytes", "Hot-tier estimated resident bytes.",
               snap.hot_bytes);
    prom_family(out, "ts_cache_hot_policy",
                "Active hot-tier eviction policy (1 on the active label).", "gauge");
    out += "ts_cache_hot_policy{policy=\"" + prom_label_escape(snap.hot_policy) +
           "\"} 1\n";
  }

  prom_counter(out, "ts_portfolio_runs_total", "Portfolio races finished.",
               snap.portfolio_runs);
  prom_family(out, "ts_portfolio_wins_total", "Races won, per engine.", "counter");
  for (const auto& [engine, wins] : snap.portfolio_wins) {
    out += "ts_portfolio_wins_total{engine=\"" + prom_label_escape(engine) + "\"} " +
           std::to_string(wins) + '\n';
  }
  prom_counter(out, "ts_ledger_probes_total", "Probe-ledger records across requests.",
               snap.total_probes);
  prom_counter(out, "ts_ledger_imported_probes_total",
               "Ledger records imported from cache hits.", snap.imported_probes);
  prom_family(out, "ts_flow_seconds_total", "Flow wall seconds across requests.",
              "counter");
  prom_sample(out, "ts_flow_seconds_total", snap.flow_seconds);
  prom_family(out, "ts_hit_flow_seconds_total",
              "Flow wall seconds of requests served from the cache.", "counter");
  prom_sample(out, "ts_hit_flow_seconds_total", snap.hit_flow_seconds);
  prom_family(out, "ts_stage_seconds_total", "Stage wall seconds, per stage.", "counter");
  for (const auto& [name, stage] : snap.stages) {
    out += "ts_stage_seconds_total{stage=\"" + prom_label_escape(name) + "\"} " +
           json_double(stage.seconds) + '\n';
  }
  prom_family(out, "ts_stage_runs_total", "Stage executions, per stage.", "counter");
  for (const auto& [name, stage] : snap.stages) {
    out += "ts_stage_runs_total{stage=\"" + prom_label_escape(name) + "\"} " +
           std::to_string(stage.runs) + '\n';
  }
  prom_family(out, "ts_failpoint_triggers_total", "Failpoint triggers, per site.",
              "counter");
  for (const auto& [site, count] : snap.failpoints) {
    out += "ts_failpoint_triggers_total{site=\"" + prom_label_escape(site) + "\"} " +
           std::to_string(count) + '\n';
  }
  if (snap.has_trace) {
    prom_family(out, "ts_trace_counter_total", "Trace counter totals, per counter name.",
                "counter");
    for (const auto& [name, value] : snap.trace_totals) {
      out += "ts_trace_counter_total{counter=\"" + prom_label_escape(name) + "\"} " +
             std::to_string(value) + '\n';
    }
  }
  if (snap.has_trace_ring) {
    prom_counter(out, "ts_trace_ring_stored_total",
                 "Per-request traces stored in the ring.", snap.traces_stored);
    prom_counter(out, "ts_trace_ring_evicted_total",
                 "Per-request traces evicted from the ring.", snap.traces_evicted);
    prom_gauge(out, "ts_trace_ring_entries", "Traces currently resident.",
               snap.trace_ring_entries);
    prom_gauge(out, "ts_trace_ring_bytes", "Bytes of trace JSON resident.",
               snap.trace_ring_bytes);
  }
  return out;
}

}  // namespace turbosyn
