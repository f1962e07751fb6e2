// Self-tests of the benchmark's own logic: the percentile floor, metric
// names, failure accounting, the request-stream generator and the
// closed-loop client. Run by run.py after every build.
//
//   synthbench_selftest --work-dir DIR

#include <filesystem>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "base/json_util.hpp"
#include "cache/flow_cache.hpp"
#include "client.hpp"
#include "core/flows.hpp"
#include "inputs.hpp"
#include "netlist/blif.hpp"
#include "service/mapping_server.hpp"
#include "workloads.hpp"
#include "workloads/generator.hpp"

namespace ts = turbosyn;
using namespace synthbench;

namespace {

int failures = 0;

#define EXPECT(cond)                                                             \
  do {                                                                           \
    if (!(cond)) {                                                               \
      ++failures;                                                                \
      std::cerr << __FILE__ << ":" << __LINE__ << ": expectation failed: " #cond \
                << "\n";                                                         \
    }                                                                            \
  } while (0)

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);
  return v;
}

void test_percentile() {
  EXPECT(!percentile(one_to(99), 0.9).has_value());
  EXPECT(percentile(one_to(100), 0.9) == 90.0);
  EXPECT(percentile(one_to(1000), 0.9) == 900.0);
  EXPECT(!percentile(one_to(19), 0.5).has_value());
  EXPECT(percentile(one_to(20), 0.5) == 10.0);
  EXPECT(!percentile(one_to(100), 1.0).has_value());
  EXPECT(median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
  EXPECT(geomean({2.0, 8.0}) > 3.999 && geomean({2.0, 8.0}) < 4.001);
}

void test_metric_names() {
  for (const char* good : {"latency_p50_ms", "core.phi_search_s", "a-b", "9lives", "setup_s"}) {
    EXPECT(valid_metric_name(good));
  }
  for (const char* bad : {"", "_x", ".x", "a b", "a/b", "x{", "p90%", "é"}) {
    EXPECT(!valid_metric_name(bad));
  }
  EXPECT(valid_metric_name(std::string(64, 'a')));
  EXPECT(!valid_metric_name(std::string(65, 'a')));
  const std::string json = result_json(true, 3, 0, {{"x.y", "ms", 1.5}});
  EXPECT(json == "{\"correct\":true,\"attempted\":3,\"failed\":0,"
                 "\"metrics\":{\"x.y\":{\"value\":1.5,\"unit\":\"ms\"}}}");
}

void test_self_time() {
  const auto span = [](int id, int parent, const char* name, double start, double seconds) {
    ts::TraceEvent e;
    e.id = id;
    e.parent = parent;
    e.name = name;
    e.start_s = start;
    e.seconds = seconds;
    return e;
  };
  // A flow of 10 s whose two child stages overlap: self time excludes the
  // union of the children, each child keeps its own.
  const auto self = layer_self_seconds({span(0, -1, "core:run_flow", 0, 10),
                                        span(1, 0, "stage:pipeline-retime", 2, 4),
                                        span(2, 0, "stage:pack", 5, 3),
                                        span(3, -1, "verify:audit_flow", 20, 1)});
  EXPECT(self.at("core") == 4.0);
  EXPECT(self.at("retime") == 4.0);
  EXPECT(self.at("mapping") == 3.0);
  EXPECT(self.at("verify") == 1.0);
  EXPECT(span_layer("flow:turbomap (cache hit)") == "cache");
  EXPECT(span_layer("netlist:read_blif_string") == "netlist");
  EXPECT(span_layer("unrelated") == "");
}

void test_failure_accounting() {
  const ts::Circuit c =
      ts::read_blif_string(ts::write_blif_string(ts::generate_fsm_circuit(ts::tiny_suite()[1])));
  ts::FlowOptions options;
  options.num_threads = 1;
  options.collect_artifacts = true;
  const ts::FlowResult good = ts::run_flow(ts::FlowKind::kTurboMap, c, options);
  const Qor q{good.phi, good.luts, good.ffs};

  Tally tally;
  EXPECT(check_flow_result("good", c, good, options, &q, tally));
  EXPECT(tally.attempted() == 1 && tally.failed() == 0);

  ts::FlowResult bad = good;  // injected wrong φ: the audit must reject it
  bad.phi = good.phi - 1;
  EXPECT(!check_flow_result("bad-phi", c, bad, options, nullptr, tally));
  const Qor off_by_one{good.phi, good.luts + 1, good.ffs};
  EXPECT(!check_flow_result("bad-expected", c, good, options, &off_by_one, tally));
  ts::FlowResult failed = good;
  failed.status = ts::Status::kFailed;
  EXPECT(!check_flow_result("bad-status", c, failed, options, nullptr, tally));
  EXPECT(tally.attempted() == 4 && tally.failed() == 3);

  Tally replies;
  const std::string ok = "{\"reply\":\"result\",\"id\":1,\"ok\":true,\"phi\":" +
                         std::to_string(q.phi) + ",\"luts\":" + std::to_string(q.luts) +
                         ",\"ffs\":" + std::to_string(q.ffs) + ",\"status\":\"ok\"}";
  EXPECT(check_reply(ok, q, replies));
  EXPECT(!check_reply("{\"reply\":\"error\",\"id\":1,\"error\":\"queue full\"}", q, replies));
  EXPECT(!check_reply(ok, off_by_one, replies));
  EXPECT(replies.attempted() == 3 && replies.failed() == 2);
}

int count_lines(const std::string& s) {
  int n = 0;
  for (const char ch : s) n += ch == '\n';
  return n;
}

void test_stream() {
  const ServeStream a = serve_stream(7, 200);
  const ServeStream b = serve_stream(7, 200);
  const ServeStream other = serve_stream(8, 200);
  EXPECT(stream_digest(a) == stream_digest(b));
  EXPECT(stream_digest(a) != stream_digest(other));
  EXPECT(a.requests.size() == 200 && a.kinds.size() == 200);

  // A different seed: different circuits, same size distribution.
  std::vector<int> sizes_a;
  std::vector<int> sizes_o;
  double gates_a = 0;
  double gates_o = 0;
  int same_text = 0;
  for (int i = 0; i < kPoolSize; ++i) {
    const CircuitInput& ca = a.circuits[static_cast<std::size_t>(i)];
    const CircuitInput& co = other.circuits[static_cast<std::size_t>(i)];
    sizes_a.push_back(ca.spec_gates);
    sizes_o.push_back(co.spec_gates);
    same_text += ca.blif == co.blif;
    gates_a += ts::read_blif_string(ca.blif).num_gates();
    gates_o += ts::read_blif_string(co.blif).num_gates();
  }
  EXPECT(sizes_a == sizes_o);
  EXPECT(same_text == 0);
  EXPECT(gates_o > 0.9 * gates_a && gates_o < 1.1 * gates_a);

  // Mix: mostly repeats of the pool, about 10% one-gate edits.
  int edits = 0;
  for (const ServeStream::Kind k : a.kinds) edits += k == ServeStream::Kind::kEdit;
  EXPECT(edits >= 8 && edits <= 35);
  std::set<int> distinct(a.requests.begin(), a.requests.end());
  EXPECT(static_cast<int>(distinct.size()) < 200 - 100);

  // Every edit changes exactly one cover line and keeps the interface.
  for (std::size_t i = kPoolSize; i < a.circuits.size(); ++i) {
    const CircuitInput& e = a.circuits[i];
    const std::string base_id = e.id.substr(0, e.id.find('~'));
    const CircuitInput* base = nullptr;
    for (int j = 0; j < kPoolSize; ++j) {
      if (a.circuits[static_cast<std::size_t>(j)].id == base_id) base = &a.circuits[static_cast<std::size_t>(j)];
    }
    EXPECT(base != nullptr);
    if (base == nullptr) continue;
    EXPECT(e.blif != base->blif);
    EXPECT(count_lines(e.blif) + 1 == count_lines(base->blif));
    const ts::Circuit ce = ts::read_blif_string(e.blif);
    const ts::Circuit cb = ts::read_blif_string(base->blif);
    EXPECT(ce.num_gates() == cb.num_gates());
    EXPECT(ce.num_pis() == cb.num_pis() && ce.num_pos() == cb.num_pos());
  }

  // A presentation changes the text, not the circuit.
  const std::string plain = a.circuits[0].blif;
  const std::string canonical = serve_stream(0, 1).circuits[0].blif;
  EXPECT(present_blif(canonical, 0) == canonical);
  EXPECT(plain != canonical);
  const ts::Circuit shown = ts::read_blif_string(plain);
  const ts::Circuit base0 = ts::read_blif_string(canonical);
  EXPECT(shown.num_gates() == base0.num_gates() && shown.num_pis() == base0.num_pis() &&
         shown.num_pos() == base0.num_pos());

  // Cold-workload inputs are deterministic per seed too.
  EXPECT(table1_round(3, 1)[2].blif == table1_round(3, 1)[2].blif);
  EXPECT(table1_round(0, 0)[2].blif != table1_round(0, 1)[2].blif);
  EXPECT(table1_round(0, 1)[2].blif != table1_round(3, 1)[2].blif);
  EXPECT(table1_round(0, 0)[2].blif ==
         ts::write_blif_string(ts::generate_fsm_circuit(ts::table1_suite()[2]), "cse"));
  EXPECT(small_turbosyn_circuit(3, 5).blif == small_turbosyn_circuit(3, 5).blif);
  EXPECT(small_turbosyn_circuit(3, 5).blif != small_turbosyn_circuit(4, 5).blif);
  EXPECT(small_turbosyn_circuit(3, 5).spec_gates == small_turbosyn_circuit(4, 5).spec_gates);
}

void test_closed_loop_client(const std::string& work_dir) {
  const std::string dir = work_dir + "/selftest";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ts::FlowCache cache(dir + "/cache");
  ts::MappingServerOptions options;
  options.socket_path = dir + "/tsd.sock";
  options.workers = 2;
  options.cache = &cache;
  ts::MappingServer server(options);
  server.start();
  {
    LineClient client(options.socket_path);
    Tally tally;
    const int requests = 6;
    for (int i = 0; i < requests; ++i) {
      const ts::BenchmarkSpec spec = ts::tiny_suite()[static_cast<std::size_t>(i % 3)];
      const std::string blif = ts::write_blif_string(ts::generate_fsm_circuit(spec));
      std::string line = "{\"op\":\"map\",\"id\":" + std::to_string(i) +
                         ",\"flow\":\"turbomap\",\"blif\":";
      ts::json_append_string(line, blif);
      line += "}";
      const std::string reply = client.call(line);
      ts::FlowOptions direct;
      direct.num_threads = 1;
      const ts::FlowResult r =
          ts::run_flow(ts::FlowKind::kTurboMap, ts::read_blif_string(blif), direct);
      check_reply(reply, Qor{r.phi, r.luts, r.ffs}, tally);
      EXPECT(reply.find("\"id\":" + std::to_string(i) + ",") != std::string::npos);
    }
    EXPECT(client.sent() == requests);
    EXPECT(client.received() == requests);
    EXPECT(tally.attempted() == requests && tally.failed() == 0);
    EXPECT(cache.hits() == 3);
  }
  server.request_shutdown();
  server.wait();
  std::filesystem::remove_all(dir);
}

}  // namespace

int main(int argc, char** argv) {
  std::string work_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string(argv[i]) == "--work-dir") work_dir = argv[i + 1];
  }
  if (work_dir.empty()) {
    std::cerr << "usage: synthbench_selftest --work-dir DIR\n";
    return 2;
  }
  try {
    test_percentile();
    test_metric_names();
    test_self_time();
    test_failure_accounting();
    test_stream();
    test_closed_loop_client(work_dir);
  } catch (const std::exception& e) {
    std::cerr << "selftest threw: " << e.what() << "\n";
    ++failures;
  }
  std::cerr << (failures == 0 ? "synthbench selftest: ok\n" : "synthbench selftest: FAILED\n");
  return failures == 0 ? 0 : 1;
}
