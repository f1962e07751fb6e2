// ts_client — command-line client for the tsd mapping daemon.
//
//   $ ./ts_client --socket /tmp/tsd.sock --map adder.blif --flow turbosyn --k 5
//   $ ./ts_client --socket /tmp/tsd.sock --stats
//   $ ./ts_client --socket /tmp/tsd.sock --ping
//   $ ./ts_client --socket /tmp/tsd.sock --cancel 7 --client ci
//   $ ./ts_client --socket /tmp/tsd.sock --shutdown
//   $ echo 'STATS' | ./ts_client --socket /tmp/tsd.sock --stdin
//
// --map reads the BLIF file and ships it inline (the daemon never touches
// the client's filesystem). A map invocation prints the "queued" ack
// and then blocks for the "result" record; the other verbs print their one
// reply. --stdin forwards raw protocol lines and prints every reply until
// EOF. --trace-fetch ID --http-port N pulls /trace/ID from the daemon's
// observability endpoint and prints the JSON body.
//
// Exit status: 0 on a successful terminal reply, 1 when the server answers
// with an error reply or a failed/cancelled result record (the server's
// error text goes to stderr), when the connection drops before a terminal
// reply, or when a trace fetch misses; 2 on usage errors. CI scripts rely
// on this: a failed map must fail the step.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "base/flow_cli.hpp"
#include "base/json_util.hpp"

namespace {

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "error: " << message << '\n'
            << "usage: ts_client --socket PATH\n"
               "         (--map FILE [--flow NAME] [--k N] [--portfolio E1,E2,...]\n"
               "            [--deadline-ms N] [--id N] [--client NAME]\n"
               "          | --stats | --ping | --cancel ID [--client NAME]\n"
               "          | --shutdown | --stdin)\n"
               "       ts_client --trace-fetch ID --http-port N\n";
  std::exit(2);
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_line(int fd, std::string line) {
  line += '\n';
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one '\n'-terminated line (buffered across calls). False on EOF.
bool read_line(int fd, std::string& buffer, std::string& line) {
  for (;;) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

/// The reply that ends a request/response exchange (vs the "queued" ack).
bool terminal_reply(const std::string& line) {
  return line.find("\"reply\":\"queued\"") == std::string::npos;
}

/// If `line` reports a failure — an error reply, or a result record whose
/// run did not succeed — extracts the server's error text (decoded from the
/// flat protocol object when it parses; the raw line otherwise) and returns
/// true. Successful replies return false.
bool extract_error(const std::string& line, std::string* message) {
  const bool error_reply = line.find("\"reply\":\"error\"") != std::string::npos;
  const bool failed_result = line.find("\"reply\":\"result\"") != std::string::npos &&
                             line.find("\"ok\":false") != std::string::npos;
  if (!error_reply && !failed_result) return false;
  *message = line;
  std::vector<std::pair<std::string, turbosyn::JsonScalar>> fields;
  if (turbosyn::parse_flat_json_object(line, fields)) {
    for (const auto& [key, value] : fields) {
      if (key == "error" && value.kind == turbosyn::JsonScalar::Kind::kString) {
        *message = value.text;
        break;
      }
    }
  }
  return true;
}

/// One GET against the daemon's observability endpoint. Prints the body on
/// a 200 and returns 0; anything else (connect failure, non-200, truncated
/// response) reports to stderr and returns 1.
int http_fetch(int port, const std::string& target) {
  const int fd = connect_tcp(port);
  if (fd < 0) {
    std::cerr << "ts_client: cannot connect to http port " << port << '\n';
    return 1;
  }
  // send_line appends the final '\n', completing the blank line that ends
  // the header block.
  if (!send_line(fd, "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     "Connection: close\r\n\r")) {
    std::cerr << "ts_client: send failed\n";
    ::close(fd);
    return 1;
  }
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t body_at = response.find("\r\n\r\n");
  if (body_at == std::string::npos) {
    std::cerr << "ts_client: malformed http response\n";
    return 1;
  }
  const std::string status_line = response.substr(0, response.find("\r\n"));
  if (status_line.find(" 200 ") == std::string::npos) {
    std::cerr << "ts_client: " << target << ": " << status_line << '\n';
    return 1;
  }
  std::cout << response.substr(body_at + 4);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace turbosyn;
  std::string socket_path;
  std::string map_file;
  std::string flow = "turbosyn";
  std::string portfolio;
  std::string client_name;
  long long k = 5;
  long long id = 0;
  long long deadline_ms = 0;
  long long cancel_id = -1;
  long long trace_fetch_id = -1;
  int http_port = -1;
  bool stats = false, ping = false, shutdown_req = false, stdin_mode = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(a + " needs a value");
      return argv[++i];
    };
    if (a == "--socket") {
      socket_path = value();
    } else if (a == "--map") {
      map_file = value();
    } else if (a == "--flow") {
      flow = value();
    } else if (a == "--portfolio") {
      // Validated by the daemon against its engine registry; a bad name
      // comes back as an error reply naming the engine.
      portfolio = value();
    } else if (a == "--client") {
      client_name = value();
    } else if (a == "--k") {
      if (!parse_int_strict(value(), 2, 32, k)) usage_error("--k expects [2, 32]");
    } else if (a == "--id") {
      if (!parse_int_strict(value(), 0, 1LL << 60, id)) usage_error("bad --id");
    } else if (a == "--deadline-ms") {
      if (!parse_int_strict(value(), 0, 1LL << 40, deadline_ms)) {
        usage_error("bad --deadline-ms");
      }
    } else if (a == "--cancel") {
      if (!parse_int_strict(value(), 0, 1LL << 60, cancel_id)) usage_error("bad --cancel");
    } else if (a == "--trace-fetch") {
      if (!parse_int_strict(value(), 0, 1LL << 60, trace_fetch_id)) {
        usage_error("bad --trace-fetch");
      }
    } else if (a == "--http-port") {
      long long port = 0;
      if (!parse_int_strict(value(), 0, 65535, port)) usage_error("bad --http-port");
      http_port = static_cast<int>(port);
    } else if (a == "--stats") {
      stats = true;
    } else if (a == "--ping") {
      ping = true;
    } else if (a == "--shutdown") {
      shutdown_req = true;
    } else if (a == "--stdin") {
      stdin_mode = true;
    } else {
      usage_error("unknown flag '" + a + "'");
    }
  }
  const int verbs = (!map_file.empty() ? 1 : 0) + (stats ? 1 : 0) + (ping ? 1 : 0) +
                    (cancel_id >= 0 ? 1 : 0) + (shutdown_req ? 1 : 0) +
                    (stdin_mode ? 1 : 0) + (trace_fetch_id >= 0 ? 1 : 0);
  if (verbs != 1) {
    usage_error(
        "exactly one of --map/--stats/--ping/--cancel/--shutdown/--stdin/--trace-fetch");
  }
  if (trace_fetch_id >= 0) {
    if (http_port < 0) usage_error("--trace-fetch needs --http-port");
    return http_fetch(http_port, "/trace/" + std::to_string(trace_fetch_id));
  }
  if (socket_path.empty()) usage_error("--socket is required");

  const int fd = connect_unix(socket_path);
  if (fd < 0) {
    std::cerr << "ts_client: cannot connect\n";
    return 1;
  }

  int status = 0;
  std::string buffer, line;
  if (stdin_mode) {
    // Raw passthrough: one reply per line sent, printed as received.
    std::string input;
    while (std::getline(std::cin, input)) {
      if (!send_line(fd, input)) break;
      if (!read_line(fd, buffer, line)) break;
      std::cout << line << '\n';
    }
  } else {
    std::string request;
    if (!map_file.empty()) {
      request = "{\"op\":\"map\",\"id\":" + std::to_string(id);
      if (!client_name.empty()) request += ",\"client\":" + json_quote(client_name);
      request += ",\"flow\":" + json_quote(flow) + ",\"k\":" + std::to_string(k);
      if (!portfolio.empty()) request += ",\"portfolio\":" + json_quote(portfolio);
      if (deadline_ms > 0) request += ",\"deadline_ms\":" + std::to_string(deadline_ms);
      std::ifstream in(map_file, std::ios::binary);
      if (!in) {
        std::cerr << "ts_client: cannot read " << map_file << '\n';
        ::close(fd);
        return 1;
      }
      std::ostringstream text;
      text << in.rdbuf();
      request += ",\"blif\":" + json_quote(text.str()) + "}";
    } else if (stats) {
      request = "STATS";
    } else if (ping) {
      request = "PING";
    } else if (shutdown_req) {
      request = "SHUTDOWN";
    } else {
      request = "{\"op\":\"cancel\",\"id\":" + std::to_string(cancel_id);
      if (!client_name.empty()) request += ",\"client\":" + json_quote(client_name);
      request += "}";
    }
    if (!send_line(fd, request)) {
      std::cerr << "ts_client: send failed\n";
      status = 1;
    } else {
      // Print the ack (map) and block until the terminal reply. An error
      // reply is a failure of the request itself: surface the server's
      // message on stderr and exit nonzero so scripts see it.
      bool done = false;
      while (!done && read_line(fd, buffer, line)) {
        std::cout << line << '\n';
        done = terminal_reply(line);
        std::string error_text;
        if (done && extract_error(line, &error_text)) {
          std::cerr << "ts_client: server error: " << error_text << '\n';
          status = 1;
        }
      }
      if (!done) {
        std::cerr << "ts_client: connection closed before a terminal reply\n";
        status = 1;
      }
    }
  }
  ::close(fd);
  return status;
}
