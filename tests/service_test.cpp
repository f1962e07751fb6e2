// Tests for the always-on mapping daemon (src/service/mapping_server) and
// the parsing fixes that ride along with it: the line protocol, round-robin
// admission with per-client caps, budget-pool slicing, live cancellation,
// the FlowCache hot tier, graceful drain (a real SIGTERM fork drill), plus
// regressions for strict flag parsing, quote-aware manifests,
// duplicate-stem de-duplication, round-trippable seconds, and the shared
// JSON escaper.
//
// The SIGTERM drill forks, so it runs before any test that spawns threads
// (gtest keeps registration order); CI's TSan job excludes it and the death
// tests by filter.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "base/check.hpp"
#include "base/failpoint.hpp"
#include "base/flow_cli.hpp"
#include "base/json_util.hpp"
#include "base/run_budget.hpp"
#include "base/trace.hpp"
#include "cache/cached_flow.hpp"
#include "cache/flow_cache.hpp"
#include "core/probe_ledger.hpp"
#include "decomp/gate_decomp.hpp"
#include "netlist/blif.hpp"
#include "netlist/canonical.hpp"
#include "service/batch_runner.hpp"
#include "service/mapping_server.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"
#include "test_dir.hpp"

namespace turbosyn {
namespace {

namespace fs = std::filesystem;

fs::path test_dir(const std::string& leaf) {
  return unique_test_dir("ts_service_test_", leaf);
}

/// Minimal raw protocol client (the daemon speaks '\n'-terminated lines).
struct TestClient {
  int fd = -1;
  std::string buffer;

  ~TestClient() {
    if (fd >= 0) ::close(fd);
  }

  bool connect_unix(const std::string& path) {
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) return false;
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return false;
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
      return false;
    }
    return true;
  }

  /// Retries until the daemon (possibly in a child process) has bound.
  bool connect_retry(const std::string& path, int attempts = 300) {
    for (int i = 0; i < attempts; ++i) {
      if (connect_unix(path)) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  bool send(const std::string& line) {
    std::string wire = line + "\n";
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool read(std::string& line) {
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
};

/// A map request line. Empty `client` omits the field (the server then uses
/// the connection's default client id, which the bare CANCEL verb targets).
std::string map_line(std::int64_t id, const std::string& blif,
                     const std::string& client = "", int k = 4,
                     const std::string& flow = "turbosyn") {
  std::string line = "{\"op\":\"map\",\"id\":" + std::to_string(id);
  if (!client.empty()) line += ",\"client\":" + json_quote(client);
  line += ",\"flow\":" + json_quote(flow) + ",\"k\":" + std::to_string(k) +
          ",\"blif\":" + json_quote(blif) + "}";
  return line;
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// Reads replies until the "result" line for `id` arrives.
bool read_result_for(TestClient& client, std::int64_t id, std::string& line) {
  const std::string tag = "\"id\":" + std::to_string(id) + ",";
  while (client.read(line)) {
    if (contains(line, "\"reply\":\"result\"") && contains(line, tag)) return true;
  }
  return false;
}

/// Polls STATS until the aggregate contains `needle`. Only safe while no
/// result lines can arrive on this connection (they would be consumed).
bool wait_for_stats(TestClient& client, const std::string& needle, int attempts = 500) {
  std::string line;
  for (int i = 0; i < attempts; ++i) {
    if (!client.send("STATS")) return false;
    do {
      if (!client.read(line)) return false;
    } while (!contains(line, "\"reply\":\"stats\""));
    if (contains(line, needle)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

/// A circuit big enough that a flow on it cannot finish before a cancel or
/// SIGTERM lands (it is always cancelled — the full runtime never elapses).
std::string slow_blif() {
  BenchmarkSpec spec;
  spec.name = "slow";
  spec.seed = 41;
  spec.num_gates = 2500;
  spec.feedback = 0.05;
  spec.max_fanin = 4;
  return write_blif_string(generate_fsm_circuit(spec), "slow");
}

FlowOptions small_options() {
  FlowOptions opt;
  opt.k = 4;
  return opt;
}

Circuit bounded_sample(const std::string& blif, int k = 4) {
  Circuit c = read_blif_string(blif);
  if (!c.is_k_bounded(k)) c = gate_decompose(c, k);
  return c;
}

std::string fingerprint(const FlowResult& r) {
  return std::to_string(r.phi) + "|" + std::to_string(r.period) + "|" +
         std::to_string(r.pipeline_stages) + "|" + write_blif_string(r.mapped, "fp");
}

/// What a hit served without artifacts must reproduce: the result summary.
std::string summary_fingerprint(const FlowResult& r) {
  std::ostringstream os;
  os << r.phi << '|' << r.period << '|' << r.pipeline_stages << '|' << r.luts << '|' << r.ffs
     << '|' << r.exact_mdr;
  return os.str();
}

// ---------------------------------------------------------------------------
// SIGTERM drain drill (fork: keep first, before any test spawns threads)

TEST(ServiceDrainDrill, SigtermDrainLosesNoRecords) {
  const fs::path dir = test_dir("drill");
  const fs::path sock = dir / "tsd.sock";
  const fs::path jsonl = dir / "records.jsonl";
  const std::string slow = slow_blif();
  const std::string quick = counter3_blif();

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // The daemon process: SIGTERM must drain it exactly like tsd. No gtest
    // assertions in the child — exit codes only.
    std::ofstream out(jsonl);
    if (!out) std::_Exit(5);
    install_sigterm_cancellation();
    MappingServerOptions options;
    options.socket_path = sock.string();
    options.workers = 1;
    options.flow = small_options();
    options.jsonl = &out;
    options.external_shutdown = &global_cancel_token();
    MappingServer server(std::move(options));
    try {
      server.start();
    } catch (...) {
      std::_Exit(3);
    }
    server.wait();
    std::_Exit(server.jsonl_faults() == 0 ? 0 : 4);
  }

  // Admit three requests — the first slow enough to still be running — then
  // SIGTERM mid-flight.
  TestClient client;
  ASSERT_TRUE(client.connect_retry(sock.string()));
  std::string line;
  ASSERT_TRUE(client.send(map_line(1, slow)));
  ASSERT_TRUE(client.read(line));
  EXPECT_TRUE(contains(line, "\"reply\":\"queued\"")) << line;
  ASSERT_TRUE(client.send(map_line(2, quick)));
  ASSERT_TRUE(client.read(line));
  EXPECT_TRUE(contains(line, "\"reply\":\"queued\"")) << line;
  ASSERT_TRUE(client.send(map_line(3, quick)));
  ASSERT_TRUE(client.read(line));
  EXPECT_TRUE(contains(line, "\"reply\":\"queued\"")) << line;

  ASSERT_EQ(::kill(child, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // Every admitted request produced exactly one JSONL record, even across
  // the drain: the slow one wound down (or was skipped), the queued ones
  // were drained as cancelled.
  std::ifstream in(jsonl);
  ASSERT_TRUE(in.good());
  std::map<std::string, int> ids;
  int lines = 0;
  for (std::string record; std::getline(in, record);) {
    ++lines;
    EXPECT_TRUE(contains(record, "\"seq\":")) << record;
    for (const char* tag : {"\"id\":1,", "\"id\":2,", "\"id\":3,"}) {
      if (contains(record, tag)) ++ids[tag];
    }
  }
  EXPECT_EQ(lines, 3);
  EXPECT_EQ(ids.size(), 3u);
  for (const auto& [tag, count] : ids) EXPECT_EQ(count, 1) << tag;
}

// ---------------------------------------------------------------------------
// Strict integer parsing (malformed flag values must not become 0)

TEST(ParseIntStrict, AcceptsOnlyWholeTokensInRange) {
  long long out = -99;
  EXPECT_TRUE(parse_int_strict("7", 0, 100, out));
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(parse_int_strict("-7", -10, 10, out));
  EXPECT_EQ(out, -7);
  EXPECT_TRUE(parse_int_strict("0", 0, 0, out));
  EXPECT_EQ(out, 0);

  long long untouched = 42;
  EXPECT_FALSE(parse_int_strict("abc", 0, 100, untouched));
  EXPECT_FALSE(parse_int_strict("3x", 0, 100, untouched));  // atoi said 3
  EXPECT_FALSE(parse_int_strict("", 0, 100, untouched));
  EXPECT_FALSE(parse_int_strict("-", 0, 100, untouched));
  EXPECT_FALSE(parse_int_strict(" 7", 0, 100, untouched));
  EXPECT_FALSE(parse_int_strict("+7", 0, 100, untouched));
  EXPECT_FALSE(parse_int_strict("7 ", 0, 100, untouched));
  EXPECT_FALSE(parse_int_strict("101", 0, 100, untouched));  // out of range
  EXPECT_FALSE(parse_int_strict("-11", -10, 10, untouched));
  EXPECT_FALSE(parse_int_strict("99999999999999999999", 0, 1LL << 62, untouched));
  EXPECT_EQ(untouched, 42);

  int narrow = 0;
  EXPECT_TRUE(parse_int_strict("12", 2, 32, narrow));
  EXPECT_EQ(narrow, 12);
  EXPECT_FALSE(parse_int_strict("33", 2, 32, narrow));
}

TEST(FlowCliDeathTest, BudgetFlagsRejectMalformedValuesWithExit2) {
  // "--deadline-ms abc" used to atoll() to a 0 ms deadline (every flow fell
  // back to the identity mapping), and "--decomp-attempt-budget abc" to 0,
  // i.e. silently unlimited.
  const auto parse = [](const char* flag, const char* value) {
    const char* argv[] = {"prog", flag, value};
    flow_cli_from_args(3, const_cast<char**>(argv));
  };
  for (const char* flag : {"--deadline-ms", "--decomp-attempt-budget"}) {
    const std::string message = std::string(flag) + " expects an integer";
    EXPECT_EXIT(parse(flag, "abc"), ::testing::ExitedWithCode(2), message);
    EXPECT_EXIT(parse(flag, "-5"), ::testing::ExitedWithCode(2), message);
    EXPECT_EXIT(parse(flag, "10ms"), ::testing::ExitedWithCode(2), message);
  }
  // Well-formed values still parse (in a child: parsing installs signal
  // handlers on the global cancel token).
  const auto accept = [] {
    const char* argv[] = {"prog", "--deadline-ms", "250", "--decomp-attempt-budget", "0"};
    std::exit(flow_cli_from_args(5, const_cast<char**>(argv)).budget.limited() ? 0 : 1);
  };
  EXPECT_EXIT(accept(), ::testing::ExitedWithCode(0), "");
}

// ---------------------------------------------------------------------------
// Manifest parsing: quoting, diagnostics, stem de-duplication

std::vector<BatchJob> parse_manifest(const std::string& text) {
  std::istringstream in(text);
  return read_batch_manifest(in, "m.txt");
}

std::string manifest_error(const std::string& text) {
  try {
    parse_manifest(text);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(BatchManifest, QuotedPathsKeepTheirSpaces) {
  const auto jobs = parse_manifest("\"a b/x.blif\" turbomap 4\n");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].path, "a b/x.blif");
  EXPECT_EQ(jobs[0].flow, FlowKind::kTurboMap);
  EXPECT_EQ(jobs[0].k, 4);
  EXPECT_EQ(jobs[0].name, "x");
}

TEST(BatchManifest, QuotedPathsDecodeEscapes) {
  const auto jobs = parse_manifest("\"she said \\\"hi\\\"\\\\x.blif\"\n");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].path, "she said \"hi\"\\x.blif");
}

TEST(BatchManifest, DiagnosticsNameTheField) {
  // An unquoted space used to shear the path and blame a bogus flow field.
  EXPECT_TRUE(contains(manifest_error("a.blif bogusflow\n"), "unknown flow"));
  EXPECT_TRUE(contains(manifest_error("a.blif bogusflow\n"), "field 2"));
  EXPECT_TRUE(contains(manifest_error("a.blif turbosyn 1\n"), "field 3"));
  EXPECT_TRUE(contains(manifest_error("a.blif turbosyn 1\n"), "[2, 32]"));
  EXPECT_TRUE(contains(manifest_error("a.blif turbosyn 4x\n"), "field 3"));
  EXPECT_TRUE(
      contains(manifest_error("a.blif turbosyn 4 extra\n"), "trailing field"));
  EXPECT_TRUE(contains(manifest_error("\"unterminated.blif\n"), "unterminated quote"));
  // Errors carry file:line context.
  EXPECT_TRUE(contains(manifest_error("a.blif turbosyn 4\nb.blif nope\n"), "m.txt:2"));
}

TEST(BatchManifest, CommentsAndBlanksIgnored) {
  const auto jobs = parse_manifest("# header\n\n  a.blif\n# tail\n");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].path, "a.blif");
  EXPECT_EQ(jobs[0].flow, FlowKind::kTurboSyn);  // defaults
  EXPECT_EQ(jobs[0].k, 5);
}

TEST(BatchManifest, DuplicateStemsAreDeduplicated) {
  // a/x.blif and b/x.blif used to stream two records both named "x", so the
  // summary's poison list could not identify which manifest entry failed.
  const auto jobs =
      parse_manifest("a/x.blif\nb/x.blif\nc/x.blif\nd/x~2.blif\ny.blif\n");
  ASSERT_EQ(jobs.size(), 5u);
  EXPECT_EQ(jobs[0].name, "x");
  EXPECT_EQ(jobs[1].name, "x~2");
  EXPECT_EQ(jobs[2].name, "x~3");
  EXPECT_EQ(jobs[3].name, "x~2~2");  // literal stem "x~2" collides with the alias
  EXPECT_EQ(jobs[4].name, "y");
}

// ---------------------------------------------------------------------------
// Record JSON: round-trippable seconds, one shared escaper

TEST(RecordJson, SecondsRoundTripExactly) {
  for (const double value : {1.0 / 3.0, 0.1, 1234.000000000001, 98765.4321098765,
                             1e-9, 0.0}) {
    BatchRecord record;
    record.name = "t";
    record.seconds = value;
    const std::string json = batch_record_json(record);
    const std::size_t pos = json.find("\"seconds\":");
    ASSERT_NE(pos, std::string::npos) << json;
    const double parsed = std::strtod(json.c_str() + pos + 10, nullptr);
    // Bit-exact: the default 6-significant-digit rendering failed this.
    EXPECT_EQ(parsed, value) << json;
  }
}

TEST(RecordJson, EscaperMatchesTraceSink) {
  // '\r' round-tripped through the batch escaper but not the trace sink's
  // before both were rerouted through base/json_util.
  const std::string name = "a\rb\x01" "c\"d\\e\nf\tg";
  std::string escaped;
  json_escape(escaped, name);
  EXPECT_TRUE(contains(escaped, "\\r"));
  EXPECT_TRUE(contains(escaped, "\\u0001"));

  BatchRecord record;
  record.name = name;
  EXPECT_TRUE(contains(batch_record_json(record), escaped));

  TraceSink sink;
  { TraceSpan span(&sink, name); }
  EXPECT_TRUE(contains(sink.to_json(), escaped));
}

TEST(JsonUtil, DoubleRendersRoundTrippable) {
  for (const double value : {1.0 / 3.0, 2.2250738585072014e-308, 1.7976931348623157e308,
                             6.02214076e23, -0.25}) {
    const std::string text = json_double(value);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), value) << text;
  }
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_double(std::nan("")), "0");
}

TEST(JsonUtil, FlatObjectParserIsStrict) {
  std::vector<std::pair<std::string, JsonScalar>> fields;
  ASSERT_TRUE(parse_flat_json_object(
      R"({"s":"a\nb","n":-3.5e2,"t":true,"f":false,"z":null})", fields));
  ASSERT_EQ(fields.size(), 5u);
  EXPECT_EQ(fields[0].second.kind, JsonScalar::Kind::kString);
  EXPECT_EQ(fields[0].second.text, "a\nb");
  EXPECT_EQ(fields[1].second.kind, JsonScalar::Kind::kNumber);
  EXPECT_EQ(fields[1].second.text, "-3.5e2");  // raw spelling preserved
  EXPECT_TRUE(fields[2].second.boolean);
  EXPECT_FALSE(fields[3].second.boolean);
  EXPECT_EQ(fields[4].second.kind, JsonScalar::Kind::kNull);

  std::string error;
  EXPECT_FALSE(parse_flat_json_object("{\"a\":1} trailing", fields, &error));
  EXPECT_FALSE(parse_flat_json_object("{\"a\":{\"nested\":1}}", fields, &error));
  EXPECT_FALSE(parse_flat_json_object("{\"a\":[1]}", fields, &error));
  EXPECT_FALSE(parse_flat_json_object("{\"a\":\"unterminated}", fields, &error));
  EXPECT_FALSE(parse_flat_json_object("{\"a\":1,,\"b\":2}", fields, &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Protocol line parsing

TEST(ProtocolParse, BareVerbs) {
  EXPECT_EQ(parse_protocol_line("PING").kind, ParsedLine::Kind::kPing);
  EXPECT_EQ(parse_protocol_line("  STATS  ").kind, ParsedLine::Kind::kStats);
  EXPECT_EQ(parse_protocol_line("SHUTDOWN").kind, ParsedLine::Kind::kShutdown);
  const ParsedLine cancel = parse_protocol_line("CANCEL 12");
  EXPECT_EQ(cancel.kind, ParsedLine::Kind::kCancel);
  EXPECT_EQ(cancel.cancel_id, 12);
}

TEST(ProtocolParse, CancelRejectsAtoiSemantics) {
  for (const char* bad : {"CANCEL 3x", "CANCEL abc", "CANCEL", "CANCEL -1"}) {
    const ParsedLine parsed = parse_protocol_line(bad);
    EXPECT_EQ(parsed.kind, ParsedLine::Kind::kError) << bad;
    EXPECT_FALSE(parsed.error.empty()) << bad;
  }
}

TEST(ProtocolParse, MapObjectFull) {
  const ParsedLine parsed = parse_protocol_line(
      R"({"op":"map","id":7,"client":"ci","blif":".model x\n","flow":"turbomap","k":6,"deadline_ms":2000})");
  ASSERT_EQ(parsed.kind, ParsedLine::Kind::kMap) << parsed.error;
  EXPECT_EQ(parsed.map.id, 7);
  EXPECT_EQ(parsed.map.client, "ci");
  EXPECT_EQ(parsed.map.blif, ".model x\n");
  EXPECT_EQ(parsed.map.flow, FlowKind::kTurboMap);
  EXPECT_EQ(parsed.map.k, 6);
  EXPECT_EQ(parsed.map.deadline_ms, 2000);
}

TEST(ProtocolParse, MapObjectDefaults) {
  const ParsedLine parsed = parse_protocol_line(R"({"op":"map","id":1,"path":"a.blif"})");
  ASSERT_EQ(parsed.kind, ParsedLine::Kind::kMap) << parsed.error;
  EXPECT_EQ(parsed.map.flow, FlowKind::kTurboSyn);
  EXPECT_EQ(parsed.map.k, 5);
  EXPECT_EQ(parsed.map.deadline_ms, 0);
  EXPECT_TRUE(parsed.map.client.empty());
}

TEST(ProtocolParse, ErrorsNameTheField) {
  struct Case {
    const char* line;
    const char* needle;
  };
  const Case cases[] = {
      {R"({"op":"map","id":1,"blif":"x","k":99})", "'k'"},
      {R"({"op":"map","id":1,"blif":"x","k":99})", "[2, 32]"},
      {R"({"op":"map","id":"3","blif":"x"})", "'id'"},
      {R"({"op":"map","id":3.5,"blif":"x"})", "'id'"},
      {R"({"op":"map","id":-1,"blif":"x"})", "'id'"},
      {R"({"op":"map","id":1,"blif":"x","flow":"nope"})", "'flow'"},
      {R"({"op":"map","id":1,"blif":"x","deadline_ms":"soon"})", "'deadline_ms'"},
      {R"({"op":"map","id":1,"blif":"x","bogus":1})", "'bogus'"},
      {R"({"op":"frobnicate","id":1})", "'op'"},
  };
  for (const Case& c : cases) {
    const ParsedLine parsed = parse_protocol_line(c.line);
    EXPECT_EQ(parsed.kind, ParsedLine::Kind::kError) << c.line;
    EXPECT_TRUE(contains(parsed.error, c.needle))
        << c.line << " -> " << parsed.error;
  }
  // A map needs a circuit, and malformed JSON is an error, never a crash.
  EXPECT_EQ(parse_protocol_line(R"({"op":"map","id":1})").kind,
            ParsedLine::Kind::kError);
  EXPECT_EQ(parse_protocol_line("{nope").kind, ParsedLine::Kind::kError);
  EXPECT_EQ(parse_protocol_line("FROB").kind, ParsedLine::Kind::kError);
}

// ---------------------------------------------------------------------------
// AdmissionQueue: fairness, caps, cancel, drain

AdmissionQueue::Ticket make_ticket(const std::string& client, std::int64_t id,
                                   std::uint64_t seq) {
  AdmissionQueue::Ticket ticket;
  ticket.request.client = client;
  ticket.request.id = id;
  ticket.seq = seq;
  ticket.cancel = std::make_shared<CancelToken>();
  return ticket;
}

TEST(AdmissionQueueTest, PerClientCapKeepsChattyClientsOutOfEveryLane) {
  AdmissionQueue queue(16, 1);
  ASSERT_TRUE(queue.push(make_ticket("a", 1, 1)));
  ASSERT_TRUE(queue.push(make_ticket("a", 2, 2)));
  ASSERT_TRUE(queue.push(make_ticket("b", 1, 3)));

  const auto first = queue.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->request.client, "a");
  EXPECT_EQ(first->request.id, 1);

  // "a" is at its in-flight cap: "b" goes next even though a#2 arrived first.
  const auto second = queue.pop();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->request.client, "b");

  queue.complete("a", 1);
  const auto third = queue.pop();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->request.client, "a");
  EXPECT_EQ(third->request.id, 2);
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(queue.in_flight(), 2);  // b#1 and a#2
}

TEST(AdmissionQueueTest, PopsAlternateRoundRobinNotFifo) {
  AdmissionQueue queue(16, 2);
  ASSERT_TRUE(queue.push(make_ticket("a", 1, 1)));
  ASSERT_TRUE(queue.push(make_ticket("a", 2, 2)));
  ASSERT_TRUE(queue.push(make_ticket("b", 1, 3)));
  ASSERT_TRUE(queue.push(make_ticket("b", 2, 4)));
  std::vector<std::string> order;
  for (int i = 0; i < 4; ++i) {
    const auto ticket = queue.pop();
    ASSERT_TRUE(ticket.has_value());
    order.push_back(ticket->request.client);
  }
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a", "b"}));
}

TEST(AdmissionQueueTest, FullQueueRejects) {
  AdmissionQueue queue(1, 1);
  ASSERT_TRUE(queue.push(make_ticket("a", 1, 1)));
  EXPECT_FALSE(queue.push(make_ticket("a", 2, 2)));
  const auto ticket = queue.pop();
  ASSERT_TRUE(ticket.has_value());
  // Depth bounds queued tickets, not in-flight ones.
  EXPECT_TRUE(queue.push(make_ticket("a", 2, 2)));
}

TEST(AdmissionQueueTest, CancelReachesQueuedAndRunningTickets) {
  AdmissionQueue queue(16, 1);
  ASSERT_TRUE(queue.push(make_ticket("a", 1, 1)));
  ASSERT_TRUE(queue.push(make_ticket("b", 1, 2)));

  // Queued: the token fires but the ticket stays queued for its worker.
  EXPECT_TRUE(queue.cancel("b", 1));
  EXPECT_EQ(queue.depth(), 2u);

  const auto running = queue.pop();
  ASSERT_TRUE(running.has_value());
  EXPECT_EQ(running->request.client, "a");
  EXPECT_FALSE(running->cancel->cancelled());
  EXPECT_TRUE(queue.cancel("a", 1));  // in-flight, via the running set
  EXPECT_TRUE(running->cancel->cancelled());

  const auto cancelled = queue.pop();
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_EQ(cancelled->request.client, "b");
  EXPECT_TRUE(cancelled->cancel->cancelled());

  EXPECT_FALSE(queue.cancel("a", 99));  // unknown id
  queue.complete("a", 1);
  EXPECT_FALSE(queue.cancel("a", 1));  // completed tickets are gone
}

TEST(AdmissionQueueTest, CloseWakesPoppersAndDrainReturnsLeftoversInSeqOrder) {
  AdmissionQueue queue(16, 1);
  ASSERT_TRUE(queue.push(make_ticket("b", 1, 3)));
  ASSERT_TRUE(queue.push(make_ticket("a", 1, 1)));
  ASSERT_TRUE(queue.push(make_ticket("a", 2, 2)));
  queue.close();
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.pop().has_value());
  EXPECT_FALSE(queue.push(make_ticket("c", 1, 4)));

  queue.cancel_all();
  const auto leftovers = queue.drain();
  ASSERT_EQ(leftovers.size(), 3u);
  EXPECT_EQ(leftovers[0].seq, 1u);
  EXPECT_EQ(leftovers[1].seq, 2u);
  EXPECT_EQ(leftovers[2].seq, 3u);
  for (const auto& ticket : leftovers) EXPECT_TRUE(ticket.cancel->cancelled());
  EXPECT_EQ(queue.depth(), 0u);
}

// ---------------------------------------------------------------------------
// BudgetPool

TEST(BudgetPoolTest, UnlimitedPoolHonorsOnlyTheCeilings) {
  BudgetPool unlimited(0, 0);
  EXPECT_EQ(unlimited.carve(0), 0);      // 0 = no deadline at all
  EXPECT_EQ(unlimited.carve(500), 500);  // a request's own deadline sticks
  EXPECT_EQ(unlimited.remaining(), -1);

  BudgetPool capped(0, 200);
  EXPECT_EQ(capped.carve(0), 200);     // server default slice
  EXPECT_EQ(capped.carve(5000), 200);  // the ceiling wins
  EXPECT_EQ(capped.carve(100), 100);   // a tighter request wins
}

TEST(BudgetPoolTest, PoolMetersActualSpendWithRefunds) {
  BudgetPool pool(1000, 400);
  EXPECT_EQ(pool.carve(0), 400);
  EXPECT_EQ(pool.remaining(), 600);
  EXPECT_EQ(pool.carve(5000), 400);
  EXPECT_EQ(pool.remaining(), 200);
  EXPECT_EQ(pool.carve(0), 200);  // pool-limited slice
  EXPECT_EQ(pool.remaining(), 0);
  // Exhausted: requests still run, on honest 1ms slices.
  EXPECT_EQ(pool.carve(0), 1);
  EXPECT_EQ(pool.carve(800), 1);
  // A slice's unused portion comes back.
  pool.refund(400, 100);
  EXPECT_EQ(pool.remaining(), 300);
  pool.refund(400, 5000);  // overspend refunds nothing (clamped at 0)
  EXPECT_EQ(pool.remaining(), 300);
}

// ---------------------------------------------------------------------------
// FlowCache hot tier

TEST(HotTier, LruEvictionAndDiskFallback) {
  const fs::path dir = test_dir("hot_lru");
  FlowCache cache(dir.string());
  cache.enable_hot_tier(16u << 20, 2);  // entry-capped at two
  EXPECT_TRUE(cache.hot_tier_enabled());
  const FlowOptions opt = small_options();

  const Circuit first = bounded_sample(counter3_blif());
  const Circuit second = bounded_sample(traffic_light_blif());
  const Circuit third = bounded_sample(gray_counter_blif());

  const FlowResult cold_result = run_flow_cached(FlowKind::kTurboSyn, first, opt, &cache);
  const std::string cold = summary_fingerprint(cold_result);
  run_flow_cached(FlowKind::kTurboSyn, second, opt, &cache);
  run_flow_cached(FlowKind::kTurboSyn, third, opt, &cache);

  // Three stores through a two-entry tier: the LRU entry (`first`) fell out.
  EXPECT_EQ(cache.hot_entries(), 2);
  EXPECT_GE(cache.hot_evictions(), 1);
  EXPECT_GT(cache.hot_bytes(), 0);
  EXPECT_EQ(cache.stores(), 3);
  EXPECT_EQ(cache.hot_hits(), 0);

  // The evicted entry is still a disk hit, and the hit re-admits it hot.
  CacheRunInfo info;
  const std::string warm =
      summary_fingerprint(run_flow_cached(FlowKind::kTurboSyn, first, opt, &cache, &info));
  EXPECT_TRUE(info.hit);
  EXPECT_EQ(cache.hot_hits(), 0);  // that one came from disk
  const std::string hot =
      summary_fingerprint(run_flow_cached(FlowKind::kTurboSyn, first, opt, &cache, &info));
  EXPECT_TRUE(info.hit);
  EXPECT_EQ(cache.hot_hits(), 1);  // this one never touched disk
  EXPECT_EQ(cache.hot_entries(), 2);

  // Hot, disk, and cold runs serve the same summary.
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(cold, hot);

  // An artifact-collecting hot hit replays the mapped network bit-identically.
  FlowOptions artifacts = opt;
  artifacts.collect_artifacts = true;
  const FlowResult replay = run_flow_cached(FlowKind::kTurboSyn, first, artifacts, &cache, &info);
  EXPECT_TRUE(info.hit);
  EXPECT_EQ(cache.hot_hits(), 2);
  EXPECT_EQ(fingerprint(replay), fingerprint(cold_result));
}

TEST(HotTier, ByteCapAndReconfiguration) {
  const fs::path dir = test_dir("hot_bytes");
  FlowCache cache(dir.string());
  const FlowOptions opt = small_options();

  // A 1-byte tier admits nothing (an entry alone exceeds the cap).
  cache.enable_hot_tier(1);
  run_flow_cached(FlowKind::kTurboSyn, bounded_sample(counter3_blif()), opt, &cache);
  EXPECT_EQ(cache.hot_entries(), 0);

  // Widen, fill, then shrink: the shrink evicts immediately.
  cache.enable_hot_tier(16u << 20);
  run_flow_cached(FlowKind::kTurboSyn, bounded_sample(counter3_blif()), opt, &cache);
  run_flow_cached(FlowKind::kTurboSyn, bounded_sample(traffic_light_blif()), opt, &cache);
  EXPECT_EQ(cache.hot_entries(), 2);
  const std::int64_t evictions_before = cache.hot_evictions();
  cache.enable_hot_tier(16u << 20, 1);
  EXPECT_EQ(cache.hot_entries(), 1);
  EXPECT_GT(cache.hot_evictions(), evictions_before);

  // Disabling clears the tier; the persistent store still serves hits.
  cache.enable_hot_tier(0);
  EXPECT_FALSE(cache.hot_tier_enabled());
  EXPECT_EQ(cache.hot_entries(), 0);
  CacheRunInfo info;
  run_flow_cached(FlowKind::kTurboSyn, bounded_sample(counter3_blif()), opt, &cache, &info);
  EXPECT_TRUE(info.hit);
}

// ---------------------------------------------------------------------------
// Hot-tier eviction policy (cost-aware admission)

TEST(HotPolicyNames, RoundTripAndRejection) {
  EXPECT_STREQ(hot_policy_name(HotPolicy::kRecency), "recency");
  EXPECT_STREQ(hot_policy_name(HotPolicy::kCostAware), "cost-aware");
  EXPECT_EQ(parse_hot_policy("recency"), HotPolicy::kRecency);
  EXPECT_EQ(parse_hot_policy("cost-aware"), HotPolicy::kCostAware);
  EXPECT_FALSE(parse_hot_policy("lru").has_value());
  EXPECT_FALSE(parse_hot_policy("").has_value());
  EXPECT_FALSE(parse_hot_policy("Cost-Aware").has_value());
}

/// A synthetic storable entry whose only interesting property is its cost.
/// Self-consistent enough to survive the full parse/certification path on a
/// disk lookup (a feasible probe record certifying the winning labels).
CacheEntry costed_entry(double flow_wall_seconds) {
  CacheEntry entry;
  entry.phi = 3;
  entry.max_po_label = 1;
  entry.winning_labels = {0, 1};
  CachedProbe probe;
  probe.phi = entry.phi;
  probe.feasible = true;
  probe.label_hash = hash_labels(std::span<const int>(entry.winning_labels));
  probe.max_po_label = entry.max_po_label;
  entry.probes.push_back(probe);
  entry.flow_wall_seconds = flow_wall_seconds;
  return entry;
}

CacheKey synthetic_key(std::uint64_t n) {
  CacheKey key;
  key.text = "synthetic key " + std::to_string(n);
  key.hash = fnv1a64(key.text);  // lookup re-derives and checks this tie
  return key;
}

TEST(HotTier, CostAwareSparesExpensiveLruTail) {
  const fs::path dir = test_dir("hot_cost");
  FlowCache cache(dir.string());
  cache.enable_hot_tier(16u << 20, 2);
  EXPECT_EQ(cache.hot_policy(), HotPolicy::kRecency);
  cache.set_hot_policy(HotPolicy::kCostAware);
  EXPECT_EQ(cache.hot_policy(), HotPolicy::kCostAware);

  // Oldest entry is 100000x more expensive than the two cheap ones.
  const CacheKey expensive = synthetic_key(1);
  const CacheKey cheap = synthetic_key(2);
  const CacheKey fresh = synthetic_key(3);
  ASSERT_TRUE(cache.store(expensive, costed_entry(100.0)));
  ASSERT_TRUE(cache.store(cheap, costed_entry(0.001)));
  EXPECT_EQ(cache.hot_entries(), 2);

  // The third store must evict: plain LRU would drop `expensive` (the
  // tail), cost-aware drops `cheap` because its score is vanishing.
  ASSERT_TRUE(cache.store(fresh, costed_entry(0.001)));
  EXPECT_EQ(cache.hot_entries(), 2);
  EXPECT_EQ(cache.hot_evictions(), 1);
  EXPECT_EQ(cache.hot_cost_evictions(), 1);
  EXPECT_DOUBLE_EQ(cache.hot_cost_retained_seconds(), 100.0);

  // `expensive` is still resident (a hot hit); `cheap` fell back to disk.
  ASSERT_TRUE(cache.lookup(expensive).has_value());
  EXPECT_EQ(cache.hot_hits(), 1);
  const std::optional<CacheEntry> demoted = cache.lookup(cheap);
  ASSERT_TRUE(demoted.has_value());
  EXPECT_EQ(cache.hot_hits(), 1);  // served from disk, not memory
  EXPECT_DOUBLE_EQ(demoted->flow_wall_seconds, 0.001);
}

TEST(HotTier, RecencyPolicyIgnoresCost) {
  const fs::path dir = test_dir("hot_recency_cost");
  FlowCache cache(dir.string());
  cache.enable_hot_tier(16u << 20, 2);  // default policy: recency

  const CacheKey expensive = synthetic_key(1);
  const CacheKey cheap = synthetic_key(2);
  const CacheKey fresh = synthetic_key(3);
  ASSERT_TRUE(cache.store(expensive, costed_entry(100.0)));
  ASSERT_TRUE(cache.store(cheap, costed_entry(0.001)));
  ASSERT_TRUE(cache.store(fresh, costed_entry(0.001)));

  // Inverse of the cost-aware case: the expensive-but-old entry is the LRU
  // tail and leaves first, cost notwithstanding.
  EXPECT_EQ(cache.hot_evictions(), 1);
  EXPECT_EQ(cache.hot_cost_evictions(), 0);
  EXPECT_DOUBLE_EQ(cache.hot_cost_retained_seconds(), 0.0);
  ASSERT_TRUE(cache.lookup(cheap).has_value());
  EXPECT_EQ(cache.hot_hits(), 1);
  ASSERT_TRUE(cache.lookup(expensive).has_value());
  EXPECT_EQ(cache.hot_hits(), 1);  // evicted: this hit came from disk
}

TEST(HotTier, ZeroCostDegradesToLruUnderCostAware) {
  const fs::path dir = test_dir("hot_zero_cost");
  FlowCache cache(dir.string());
  cache.enable_hot_tier(16u << 20, 2);
  cache.set_hot_policy(HotPolicy::kCostAware);

  // All costs equal (zero): the last_use tie-break reduces the score scan
  // to exact LRU order, so recency and cost-aware behave identically.
  ASSERT_TRUE(cache.store(synthetic_key(1), costed_entry(0.0)));
  ASSERT_TRUE(cache.store(synthetic_key(2), costed_entry(0.0)));
  ASSERT_TRUE(cache.store(synthetic_key(3), costed_entry(0.0)));
  EXPECT_EQ(cache.hot_evictions(), 1);
  EXPECT_EQ(cache.hot_cost_evictions(), 0);
  ASSERT_TRUE(cache.lookup(synthetic_key(2)).has_value());
  ASSERT_TRUE(cache.lookup(synthetic_key(3)).has_value());
  EXPECT_EQ(cache.hot_hits(), 2);  // 2 and 3 stayed; 1 was the LRU victim
}

TEST(HotTier, MidRunPolicyReconfigurationKeepsResidents) {
  const fs::path dir = test_dir("hot_reconfig");
  FlowCache cache(dir.string());
  cache.enable_hot_tier(16u << 20, 2);

  const CacheKey expensive = synthetic_key(1);
  const CacheKey cheap = synthetic_key(2);
  ASSERT_TRUE(cache.store(expensive, costed_entry(50.0)));
  ASSERT_TRUE(cache.store(cheap, costed_entry(0.001)));

  // Flip to cost-aware with entries resident: nothing is dropped, and the
  // next eviction already follows the new policy (sparing the expensive
  // LRU tail).
  cache.set_hot_policy(HotPolicy::kCostAware);
  EXPECT_EQ(cache.hot_entries(), 2);
  ASSERT_TRUE(cache.store(synthetic_key(3), costed_entry(0.001)));
  EXPECT_EQ(cache.hot_cost_evictions(), 1);
  ASSERT_TRUE(cache.lookup(expensive).has_value());
  EXPECT_EQ(cache.hot_hits(), 1);

  // Flip back mid-run: plain LRU again, cost ignored from here on.
  cache.set_hot_policy(HotPolicy::kRecency);
  ASSERT_TRUE(cache.store(synthetic_key(4), costed_entry(0.001)));
  EXPECT_EQ(cache.hot_cost_evictions(), 1);  // unchanged
  ASSERT_TRUE(cache.lookup(expensive).has_value());
  EXPECT_EQ(cache.hot_hits(), 2);  // the recently-hit entry survived as MRU
}

// ---------------------------------------------------------------------------
// MappingServer over a real Unix socket

MappingServerOptions server_options(const fs::path& sock) {
  MappingServerOptions options;
  options.socket_path = sock.string();
  options.workers = 1;
  options.flow = small_options();
  return options;
}

TEST(MappingServerTest, PingProtocolErrorsAndEmptyStats) {
  const fs::path dir = test_dir("ping");
  MappingServer server(server_options(dir / "tsd.sock"));
  server.start();

  TestClient client;
  ASSERT_TRUE(client.connect_unix((dir / "tsd.sock").string()));
  std::string line;

  ASSERT_TRUE(client.send("PING"));
  ASSERT_TRUE(client.read(line));
  EXPECT_TRUE(contains(line, "\"reply\":\"pong\"")) << line;

  ASSERT_TRUE(client.send("FROB"));
  ASSERT_TRUE(client.read(line));
  EXPECT_TRUE(contains(line, "\"reply\":\"error\"")) << line;
  EXPECT_TRUE(contains(line, "unknown verb")) << line;

  ASSERT_TRUE(client.send(R"({"op":"map","id":1,"k":"4","blif":"x"})"));
  ASSERT_TRUE(client.read(line));
  EXPECT_TRUE(contains(line, "\"reply\":\"error\"")) << line;
  EXPECT_TRUE(contains(line, "'k'")) << line;

  ASSERT_TRUE(client.send("STATS"));
  ASSERT_TRUE(client.read(line));
  EXPECT_TRUE(contains(line, "\"reply\":\"stats\"")) << line;
  EXPECT_TRUE(contains(line, "\"admitted\":0")) << line;
  EXPECT_TRUE(contains(line, "\"draining\":false")) << line;

  server.request_shutdown();
  server.wait();
  EXPECT_EQ(server.admitted(), 0);
}

TEST(MappingServerTest, MapMissThenHotTierRepeat) {
  const fs::path dir = test_dir("hot_repeat");
  FlowCache cache((dir / "cache").string());
  cache.enable_hot_tier(16u << 20);
  std::ostringstream jsonl;
  MappingServerOptions options = server_options(dir / "tsd.sock");
  options.cache = &cache;
  options.jsonl = &jsonl;
  MappingServer server(std::move(options));
  server.start();

  TestClient client;
  ASSERT_TRUE(client.connect_unix((dir / "tsd.sock").string()));
  const std::string blif = counter3_blif();
  std::string line;

  ASSERT_TRUE(client.send(map_line(1, blif, "ci")));
  ASSERT_TRUE(read_result_for(client, 1, line));
  EXPECT_TRUE(contains(line, "\"ok\":true")) << line;
  EXPECT_TRUE(contains(line, "\"cache_hit\":false")) << line;
  EXPECT_TRUE(contains(line, "\"client\":\"ci\"")) << line;

  // The same circuit again: served from the in-memory hot tier.
  ASSERT_TRUE(client.send(map_line(2, blif, "ci")));
  ASSERT_TRUE(read_result_for(client, 2, line));
  EXPECT_TRUE(contains(line, "\"ok\":true")) << line;
  EXPECT_TRUE(contains(line, "\"cache_hit\":true")) << line;

  ASSERT_TRUE(client.send("STATS"));
  ASSERT_TRUE(client.read(line));
  EXPECT_TRUE(contains(line, "\"hot_hits\":1")) << line;
  EXPECT_TRUE(contains(line, "\"hot_entries\":1")) << line;
  EXPECT_TRUE(contains(line, "\"completed\":2")) << line;
  EXPECT_TRUE(contains(line, "\"hit_flow_seconds\":")) << line;

  // Flow seconds split by path: the hit's share is counted, the miss's not.
  const StatsSnapshot snap = server.snapshot();
  EXPECT_GT(snap.hit_flow_seconds, 0.0);
  EXPECT_LT(snap.hit_flow_seconds, snap.flow_seconds);
  EXPECT_TRUE(contains(render_prometheus(snap), "\nts_hit_flow_seconds_total "));

  server.request_shutdown();
  server.wait();
  EXPECT_EQ(server.completed(), 2);

  // Both records streamed through the sink, with admission seq envelopes.
  int lines = 0;
  std::istringstream records(jsonl.str());
  for (std::string record; std::getline(records, record);) {
    ++lines;
    EXPECT_TRUE(contains(record, "\"seq\":")) << record;
  }
  EXPECT_EQ(lines, 2);
  EXPECT_EQ(server.jsonl_faults(), 0);
}

TEST(MappingServerTest, InFlightSlotIsFreeOnceTheResultIsRead) {
  // A worker returns the ticket's in-flight slot before its result goes on
  // the wire, so a client that has read a result never sees the request
  // still running. After the first miss every request is a hot-tier hit,
  // whose reply follows the end of its run by microseconds.
  const fs::path dir = test_dir("slot_free");
  FlowCache cache((dir / "cache").string());
  cache.enable_hot_tier(16u << 20);
  MappingServerOptions options = server_options(dir / "tsd.sock");
  options.cache = &cache;
  MappingServer server(std::move(options));
  server.start();

  TestClient client;
  ASSERT_TRUE(client.connect_unix((dir / "tsd.sock").string()));
  const std::string blif = counter3_blif();
  std::string line;
  for (int id = 1; id <= 20; ++id) {
    ASSERT_TRUE(client.send(map_line(id, blif, "ci")));
    ASSERT_TRUE(read_result_for(client, id, line));
    EXPECT_EQ(server.snapshot().in_flight, 0) << "after result " << id;
  }

  server.request_shutdown();
  server.wait();
  EXPECT_EQ(server.completed(), 20);
}

TEST(MappingServerTest, PoisonedResubmissionAnsweredWithoutRerunning) {
  const fs::path dir = test_dir("poison");
  MappingServerOptions options = server_options(dir / "tsd.sock");
  options.max_attempts = 2;
  options.retry_backoff_ms = 1;
  MappingServer server(std::move(options));
  server.start();

  // Every run of this circuit faults deterministically: two attempts, then
  // quarantine.
  failpoint::Scoped scoped("batch.job=error*10");
  TestClient client;
  ASSERT_TRUE(client.connect_unix((dir / "tsd.sock").string()));
  const std::string blif = pattern_fsm_blif();
  std::string line;

  ASSERT_TRUE(client.send(map_line(1, blif, "ci")));
  ASSERT_TRUE(read_result_for(client, 1, line));
  EXPECT_TRUE(contains(line, "\"quarantined\":true")) << line;
  EXPECT_TRUE(contains(line, "\"attempts\":2")) << line;

  // Resubmission: answered from the poison set, zero further attempts.
  ASSERT_TRUE(client.send(map_line(2, blif, "ci")));
  ASSERT_TRUE(read_result_for(client, 2, line));
  EXPECT_TRUE(contains(line, "\"quarantined\":true")) << line;
  EXPECT_TRUE(contains(line, "\"attempts\":0")) << line;
  EXPECT_TRUE(contains(line, "quarantined (failed deterministically")) << line;

  server.request_shutdown();
  server.wait();
  EXPECT_EQ(server.poison_blocked(), 1);
  // Only the executed-and-quarantined run counts as failed; the blocked
  // resubmission has its own counter.
  EXPECT_EQ(server.failed(), 1);
}

TEST(MappingServerTest, LiveCancelAndQueueFullRejection) {
  const fs::path dir = test_dir("cancel");
  MappingServerOptions options = server_options(dir / "tsd.sock");
  options.max_queue = 1;
  MappingServer server(std::move(options));
  server.start();

  TestClient client;
  ASSERT_TRUE(client.connect_unix((dir / "tsd.sock").string()));
  std::string line;

  // Occupy the single worker lane, and wait until it has actually popped.
  ASSERT_TRUE(client.send(map_line(1, slow_blif())));
  ASSERT_TRUE(client.read(line));
  EXPECT_TRUE(contains(line, "\"reply\":\"queued\"")) << line;
  ASSERT_TRUE(wait_for_stats(client, "\"in_flight\":1"));

  // One slot queues; the next is rejected, not silently dropped.
  ASSERT_TRUE(client.send(map_line(2, counter3_blif())));
  ASSERT_TRUE(client.read(line));
  EXPECT_TRUE(contains(line, "\"reply\":\"queued\"")) << line;
  ASSERT_TRUE(client.send(map_line(3, counter3_blif())));
  ASSERT_TRUE(client.read(line));
  EXPECT_TRUE(contains(line, "\"reply\":\"error\"")) << line;
  EXPECT_TRUE(contains(line, "admission queue is full")) << line;

  // Cancel the queued request, then the running one (bare verbs target the
  // connection's default client — these requests sent no client field).
  ASSERT_TRUE(client.send("CANCEL 2"));
  ASSERT_TRUE(client.read(line));
  EXPECT_TRUE(contains(line, "\"found\":true")) << line;
  ASSERT_TRUE(client.send("CANCEL 1"));
  ASSERT_TRUE(client.read(line));
  EXPECT_TRUE(contains(line, "\"found\":true")) << line;
  ASSERT_TRUE(client.send("CANCEL 99"));
  ASSERT_TRUE(client.read(line));
  EXPECT_TRUE(contains(line, "\"found\":false")) << line;

  // The running request winds down to a cancelled record; the queued one is
  // skipped without ever running.
  std::map<std::int64_t, std::string> results;
  while (results.size() < 2 && client.read(line)) {
    if (!contains(line, "\"reply\":\"result\"")) continue;
    for (const std::int64_t id : {1, 2}) {
      if (contains(line, "\"id\":" + std::to_string(id) + ",")) results[id] = line;
    }
  }
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(contains(results[1], "\"status\":\"cancelled\"")) << results[1];
  EXPECT_TRUE(contains(results[2], "\"skipped\":true")) << results[2];
  EXPECT_TRUE(contains(results[2], "\"status\":\"cancelled\"")) << results[2];

  server.request_shutdown();
  server.wait();
  EXPECT_EQ(server.cancelled(), 2);
  EXPECT_EQ(server.rejected(), 1);
}

TEST(MappingServerTest, ShutdownVerbDrainsAndRefusesNewWork) {
  const fs::path dir = test_dir("shutdown");
  MappingServer server(server_options(dir / "tsd.sock"));
  server.start();

  TestClient client;
  ASSERT_TRUE(client.connect_unix((dir / "tsd.sock").string()));
  std::string line;
  ASSERT_TRUE(client.send("SHUTDOWN"));
  ASSERT_TRUE(client.read(line));
  EXPECT_TRUE(contains(line, "\"reply\":\"shutdown\"")) << line;
  server.wait();
  EXPECT_TRUE(server.draining());
  EXPECT_EQ(server.admitted(), 0);
}

TEST(MappingServerTest, TcpLoopbackListener) {
  MappingServerOptions options;
  options.tcp_port = 0;  // ephemeral
  options.workers = 1;
  options.flow = small_options();
  MappingServer server(std::move(options));
  server.start();
  const int port = server.port();
  ASSERT_GT(port, 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  TestClient client;
  client.fd = fd;
  std::string line;
  ASSERT_TRUE(client.send("PING"));
  ASSERT_TRUE(client.read(line));
  EXPECT_TRUE(contains(line, "\"reply\":\"pong\"")) << line;

  server.request_shutdown();
  server.wait();
}

// ---------------------------------------------------------------------------
// HTTP observability endpoint

/// One blocking request against 127.0.0.1:`port`. Returns the raw response
/// (status line, headers, body), or "" when the connection itself failed —
/// which is how the tests detect a stopped endpoint.
std::string http_request(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
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
  return response;
}

std::string http_get(int port, const std::string& target) {
  return http_request(port, "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n");
}

/// Body of a raw response (everything past the header block).
std::string http_body(const std::string& response) {
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? std::string() : response.substr(at + 4);
}

TEST(HttpEndpointTest, RoutesMetricsHealthzAndTraces) {
  const fs::path dir = test_dir("http");
  FlowCache cache((dir / "cache").string());
  cache.enable_hot_tier(16u << 20);
  MappingServerOptions options = server_options(dir / "tsd.sock");
  options.cache = &cache;
  options.http_port = 0;  // ephemeral
  options.trace_ring_entries = 4;
  MappingServer server(std::move(options));
  server.start();
  const int port = server.http_port();
  ASSERT_GT(port, 0);

  EXPECT_TRUE(contains(http_get(port, "/healthz"), " 200 "));
  EXPECT_TRUE(contains(http_body(http_get(port, "/healthz")), "ok"));
  EXPECT_TRUE(contains(http_get(port, "/nope"), " 404 "));
  EXPECT_TRUE(contains(http_get(port, "/trace/notanumber"), " 404 "));
  EXPECT_TRUE(contains(http_request(port, "POST /metrics HTTP/1.1\r\n\r\n"), " 405 "));

  // A mapped request earns a trace handle, echoed in the reply envelope.
  TestClient client;
  ASSERT_TRUE(client.connect_unix((dir / "tsd.sock").string()));
  std::string line;
  ASSERT_TRUE(client.send(map_line(1, counter3_blif(), "ci")));
  ASSERT_TRUE(read_result_for(client, 1, line));
  const std::size_t tag = line.find("\"trace\":");
  ASSERT_NE(tag, std::string::npos) << line;
  std::string seq;
  for (std::size_t i = tag + 8;
       i < line.size() && std::isdigit(static_cast<unsigned char>(line[i])); ++i) {
    seq += line[i];
  }
  ASSERT_FALSE(seq.empty());

  const std::string trace = http_get(port, "/trace/" + seq);
  EXPECT_TRUE(contains(trace, " 200 ")) << trace;
  EXPECT_TRUE(contains(trace, "application/json")) << trace;
  EXPECT_TRUE(contains(http_body(trace), "\"version\": 1")) << trace;
  EXPECT_TRUE(contains(http_body(trace), "\"spans\": [")) << trace;
  EXPECT_TRUE(contains(http_get(port, "/trace/999999"), " 404 "));

  // The exposition carries the request's footprint and the active policy.
  const std::string metrics = http_body(http_get(port, "/metrics"));
  EXPECT_TRUE(contains(metrics, "# TYPE ts_server_admitted_total counter")) << metrics;
  EXPECT_TRUE(contains(metrics, "ts_server_admitted_total 1\n")) << metrics;
  EXPECT_TRUE(contains(metrics, "ts_cache_misses_total 1\n")) << metrics;
  EXPECT_TRUE(contains(metrics, "ts_cache_hot_policy{policy=\"recency\"} 1\n")) << metrics;
  EXPECT_TRUE(contains(metrics, "ts_trace_ring_stored_total 1\n")) << metrics;

  // Bit-for-bit consistency: the scrape, a direct render of the snapshot,
  // and the STATS reply all describe the same struct. The daemon is idle,
  // so back-to-back reads must agree exactly.
  EXPECT_EQ(metrics, render_prometheus(server.snapshot()));
  ASSERT_TRUE(client.send("STATS"));
  // The queued ack and the worker's result race on the wire; skip any stray
  // ack still buffered ahead of the stats reply.
  do {
    ASSERT_TRUE(client.read(line));
  } while (!contains(line, "\"reply\":\"stats\""));
  EXPECT_EQ(line, render_stats_json(server.snapshot()));

  // The drain flips readiness but keeps the endpoint answering: a scraper
  // watching /healthz sees the drain, not a vanished daemon.
  server.request_shutdown();
  const std::string draining = http_get(port, "/healthz");
  EXPECT_TRUE(contains(draining, " 503 ")) << draining;
  EXPECT_TRUE(contains(http_body(draining), "draining")) << draining;
  server.wait();
  EXPECT_TRUE(http_get(port, "/healthz").empty());  // endpoint stopped last
}

TEST(HttpEndpointTest, TraceRingEvictsOldestAndKeepsTotals) {
  const fs::path dir = test_dir("http_ring");
  MappingServerOptions options = server_options(dir / "tsd.sock");
  options.http_port = 0;
  options.trace_ring_entries = 1;  // the second trace evicts the first
  MappingServer server(std::move(options));
  server.start();
  const int port = server.http_port();
  ASSERT_GT(port, 0);

  TestClient client;
  ASSERT_TRUE(client.connect_unix((dir / "tsd.sock").string()));
  std::string line;
  ASSERT_TRUE(client.send(map_line(1, counter3_blif(), "ci")));
  ASSERT_TRUE(read_result_for(client, 1, line));
  ASSERT_TRUE(client.send(map_line(2, traffic_light_blif(), "ci")));
  ASSERT_TRUE(read_result_for(client, 2, line));

  // seq 1 was evicted by seq 2; only the newest handle resolves.
  EXPECT_TRUE(contains(http_get(port, "/trace/1"), " 404 "));
  EXPECT_TRUE(contains(http_get(port, "/trace/2"), " 200 "));
  const std::string metrics = http_body(http_get(port, "/metrics"));
  EXPECT_TRUE(contains(metrics, "ts_trace_ring_stored_total 2\n")) << metrics;
  EXPECT_TRUE(contains(metrics, "ts_trace_ring_evicted_total 1\n")) << metrics;
  EXPECT_TRUE(contains(metrics, "ts_trace_ring_entries 1\n")) << metrics;
  // Evicted traces still count into the aggregated trace counters.
  EXPECT_TRUE(contains(metrics, "# TYPE ts_trace_counter_total counter")) << metrics;

  server.request_shutdown();
  server.wait();
}

// ---------------------------------------------------------------------------
// ts_client exit codes (the built binary against an in-process daemon)

#ifdef TS_CLIENT_BIN

/// Runs the ts_client binary with `args`, capturing stderr. Returns the
/// exit status (-1 if it did not exit normally).
int run_ts_client(const std::string& args, const fs::path& stderr_file) {
  const std::string cmd = std::string(TS_CLIENT_BIN) + " " + args + " >/dev/null 2>" +
                          stderr_file.string();
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(TsClientTool, ExitCodesFollowReplyOutcome) {
  const fs::path dir = test_dir("tsclient");
  const fs::path err = dir / "stderr.txt";
  MappingServerOptions options = server_options(dir / "tsd.sock");
  options.http_port = 0;
  options.trace_ring_entries = 4;
  MappingServer server(std::move(options));
  server.start();
  const std::string sock = " --socket " + (dir / "tsd.sock").string();

  std::ofstream(dir / "good.blif") << counter3_blif();
  std::ofstream(dir / "bad.blif") << "this is not a blif netlist\n";

  EXPECT_EQ(run_ts_client("--ping" + sock, err), 0);
  EXPECT_EQ(run_ts_client("--map " + (dir / "good.blif").string() + sock, err), 0);

  // A failed result record must exit nonzero with the server's text on
  // stderr — a failed map must fail the calling script.
  EXPECT_EQ(run_ts_client("--map " + (dir / "bad.blif").string() + sock, err), 1);
  std::string text = slurp(err);
  EXPECT_TRUE(contains(text, "ts_client: server error:")) << text;

  // Same for a protocol-level error reply (unknown portfolio engine).
  EXPECT_EQ(run_ts_client("--map " + (dir / "good.blif").string() +
                              " --portfolio nosuchengine" + sock,
                          err),
            1);
  text = slurp(err);
  EXPECT_TRUE(contains(text, "ts_client: server error:")) << text;

  // Trace fetches: a missing id is exit 1, a real one exit 0.
  const std::string http = " --http-port " + std::to_string(server.http_port());
  EXPECT_EQ(run_ts_client("--trace-fetch 999999" + http, err), 1);
  EXPECT_EQ(run_ts_client("--trace-fetch 1" + http, err), 0);

  server.request_shutdown();
  server.wait();

  // With the daemon gone, connecting at all fails: exit 1.
  EXPECT_EQ(run_ts_client("--ping" + sock, err), 1);
}

TEST(TsClientTool, ExitsNonzeroWhenConnectionDropsMidResponse) {
  const fs::path dir = test_dir("tsclient_drop");
  const fs::path err = dir / "stderr.txt";
  std::ofstream(dir / "good.blif") << counter3_blif();

  // A fake daemon that acks the map as queued and then hangs up: the client
  // must not report success for a request it never saw finish.
  const std::string sock_path = (dir / "fake.sock").string();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sock_path.c_str(), sizeof(addr.sun_path) - 1);
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  std::thread fake([listen_fd] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    std::string request;
    char chunk[4096];
    while (request.find('\n') == std::string::npos) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0) break;
      request.append(chunk, static_cast<std::size_t>(n));
    }
    const std::string ack = "{\"reply\":\"queued\",\"id\":1}\n";
    (void)!::send(fd, ack.data(), ack.size(), MSG_NOSIGNAL);
    ::close(fd);  // drop before the terminal reply
  });

  EXPECT_EQ(run_ts_client("--map " + (dir / "good.blif").string() + " --socket " + sock_path,
                          err),
            1);
  const std::string text = slurp(err);
  EXPECT_TRUE(contains(text, "connection closed before a terminal reply")) << text;
  fake.join();
  ::close(listen_fd);
}

#endif  // TS_CLIENT_BIN

}  // namespace
}  // namespace turbosyn
