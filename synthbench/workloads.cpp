#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "base/json_util.hpp"
#include "base/trace.hpp"
#include "cache/flow_cache.hpp"
#include "client.hpp"
#include "core/engines.hpp"
#include "core/portfolio.hpp"
#include "inputs.hpp"
#include "netlist/blif.hpp"
#include "service/mapping_server.hpp"
#include "verify/audit.hpp"
#include "workloads/generator.hpp"

namespace synthbench {

namespace ts = turbosyn;

namespace {

constexpr int kSetupRepeats = 9;
constexpr int kTable1Shapes = 16;
constexpr int kServeClients = 3;
constexpr int kServeWorkers = 2;          // the tsd default
constexpr std::size_t kHotTierBytes = std::size_t{1} << 20;
constexpr const char* kPortfolio = "turbomap,turbosyn";

/// Operations per run: a fixed amount of work, so every run of a seed does
/// the same work and --seconds only scales it. The per-second rates make a
/// run last about --seconds on a 4-core x86-64 host; the floors give the
/// p90 at least 100 latency samples (table1_turbomap maps whole rounds of
/// the 16 shapes: 7 rounds, 40-50 s, whatever --seconds says).
int operation_count(const RunOptions& o) {
  const double s = o.seconds;
  if (o.workload == "table1_turbomap") {
    const int rounds = std::max(7, static_cast<int>(std::ceil(s * 3.0 / kTable1Shapes)));
    return rounds * kTable1Shapes;
  }
  if (o.workload == "small_turbosyn") return std::max(110, static_cast<int>(s * 24.0));
  return std::max(300, static_cast<int>(s * 100.0));
}

/// Threads for the benchmark's own post-window checks.
int host_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Runs fn(i) for i in [0, n) on `threads` threads; fn must not throw.
template <class Fn>
void parallel_for(int n, int threads, Fn fn) {
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, std::min(threads, n)); ++t) {
    pool.emplace_back([&] {
      for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  for (std::thread& th : pool) th.join();
}

bool get_field(const std::vector<std::pair<std::string, ts::JsonScalar>>& fields,
               const std::string& name, ts::JsonScalar& out) {
  for (const auto& [key, value] : fields) {
    if (key == name) {
      out = value;
      return true;
    }
  }
  return false;
}

/// Everything one pass of a workload measured. A trace-mode run makes two
/// passes over identical inputs (untraced, then traced) and reports the
/// traced one's layer numbers plus their wall-time ratio.
struct PassResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int executed = 0;  // requests or circuits run in the timed window
  std::int64_t ok_count = 0;
  std::vector<double> latency_ms;
  std::vector<double> qor_phi;
  std::vector<double> qor_luts;
  Tally tally;
  std::vector<std::string> notes;
  // Layer inputs.
  std::vector<double> parse_ms;
  std::vector<double> key_ms;
  double audit_s = 0.0;
  double flow_s = 0.0;  // summed flow wall time (FlowResult::seconds)
  std::int64_t decomp_successes = 0;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<double> wait_ms;
  ts::StatsSnapshot before;
  ts::StatsSnapshot after;
  bool served = false;
};

/// Canonical-key timing plus the result checks of one circuit.
struct Verified {
  Tally tally;
  double key_ms = 0.0;
  double audit_s = 0.0;
  std::optional<ts::CacheKey> key;
};

ts::FlowKind kind_of(const std::string& flow) {
  ts::FlowKind kind = ts::FlowKind::kTurboMap;
  ts::flow_kind_from_name(flow, kind);
  return kind;
}

std::string qor_text(const Qor& q) {
  return "phi=" + std::to_string(q.phi) + " luts=" + std::to_string(q.luts) +
         " ffs=" + std::to_string(q.ffs);
}

Qor qor_of(const ts::FlowResult& r) { return {r.phi, r.luts, r.ffs}; }

/// Expected-results check (when a file for this seed and thread count
/// exists) and recording.
class ExpectedBook {
 public:
  explicit ExpectedBook(const RunOptions& o)
      : path_(o.expected_dir + "/" + expected_file_name(o)),
        record_(o.record),
        header_("# synthbench expected results: workload=" + o.workload +
                " seed=" + std::to_string(o.seed) + " operations=" +
                std::to_string(operation_count(o)) +
                " threads=" + std::to_string(workload_threads(o.workload))) {
    if (!record_) entries_ = load_expected(path_);
  }

  const Qor* find(const std::string& id) const {
    if (!entries_) return nullptr;
    const auto it = entries_->find(id);
    return it == entries_->end() ? nullptr : &it->second;
  }

  void add(const std::string& id, const Qor& q) { recorded_[id] = q; }

  /// Writes the recorded entries (record mode) and describes what happened.
  std::string finish(const Tally& tally, std::int64_t checked) const {
    if (record_) {
      if (tally.failed() > 0) return "error: expected results NOT recorded (checks failed)";
      if (!write_expected(path_, header_, recorded_)) return "error: cannot write " + path_;
      return "expected: recorded " + std::to_string(recorded_.size()) + " circuits to " + path_;
    }
    if (!entries_) return "expected: no file " + path_ + " (audit and cross-checks only)";
    return "expected: " + std::to_string(checked) + " circuits checked against " + path_;
  }

 private:
  std::string path_;
  bool record_;
  std::string header_;
  std::optional<std::map<std::string, Qor>> entries_;
  std::map<std::string, Qor> recorded_;
};

// ---------------------------------------------------------------------------
// Cold workloads: one circuit at a time, closed loop, in-process.

struct ColdJob {
  CircuitInput input;
  ts::Circuit circuit;
  ts::FlowResult result;
  std::string error;
  double latency_ms = 0.0;
};

PassResult cold_pass(const RunOptions& o, bool turbosyn, ts::TraceSink* sink) {
  PassResult p;
  const int threads = workload_threads(o.workload);
  const int count = operation_count(o);
  const ts::FlowKind kind = turbosyn ? ts::FlowKind::kTurboSyn : ts::FlowKind::kTurboMap;

  std::vector<double> setups;
  std::vector<CircuitInput> inputs;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    inputs.clear();
    const double t = now_seconds();
    while (static_cast<int>(inputs.size()) < count) {
      const int next = static_cast<int>(inputs.size());
      if (turbosyn) {
        inputs.push_back(small_turbosyn_circuit(o.seed, next));
      } else {
        for (CircuitInput& c : table1_round(o.seed, next / kTable1Shapes)) {
          inputs.push_back(std::move(c));
        }
      }
    }
    setups.push_back(now_seconds() - t);
  }
  p.setup_s = median(setups);

  ts::FlowOptions options;
  options.num_threads = threads;
  options.collect_artifacts = true;
  {
    // Lazy process set-up (the label engine's thread pool) before timing.
    const ts::Circuit warm = ts::generate_fsm_circuit(ts::tiny_suite()[0]);
    (void)ts::run_flow(kind, warm, options);
  }
  ts::FlowOptions timed = options;
  timed.trace = sink;

  std::vector<ColdJob> jobs;
  const double cpu0 = process_cpu_seconds();
  const double t0 = now_seconds();
  for (CircuitInput& input : inputs) {
    ColdJob job;
    job.input = std::move(input);
    const double s = now_seconds();
    try {
      {
        ts::TraceSpan span(sink, "netlist:read_blif_string", job.input.id);
        job.circuit = ts::read_blif_string(job.input.blif, job.input.id);
      }
      p.parse_ms.push_back((now_seconds() - s) * 1e3);
      ts::TraceSpan span(sink, "core:run_flow", job.input.id);
      job.result = ts::run_flow(kind, job.circuit, timed);
    } catch (const std::exception& e) {
      job.error = e.what();
    }
    job.latency_ms = (now_seconds() - s) * 1e3;
    jobs.push_back(std::move(job));
  }
  p.wall_s = now_seconds() - t0;
  p.cpu_s = process_cpu_seconds() - cpu0;
  p.executed = static_cast<int>(jobs.size());

  // Checks, after the timed window: audit every result, compare with the
  // expected file.
  ExpectedBook book(o);
  std::vector<Verified> verified(jobs.size());
  parallel_for(static_cast<int>(jobs.size()), host_threads(), [&](int i) {
    ColdJob& job = jobs[static_cast<std::size_t>(i)];
    Verified& v = verified[static_cast<std::size_t>(i)];
    if (!job.error.empty()) {
      v.tally.fail(job.input.id + ": " + job.error);
      return;
    }
    try {
      const double s = now_seconds();
      {
        ts::TraceSpan span(sink, "netlist:make_cache_key", job.input.id);
        v.key = ts::make_cache_key(job.circuit, options, kind);
      }
      v.key_ms = (now_seconds() - s) * 1e3;
      ts::TraceSpan span(sink, "verify:audit_flow", job.input.id);
      check_flow_result(job.input.id, job.circuit, job.result, options, book.find(job.input.id),
                        v.tally, &v.audit_s);
    } catch (const std::exception& e) {
      v.tally.fail(job.input.id + ": check threw: " + e.what());
    }
  });
  std::int64_t checked = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ColdJob& job = jobs[i];
    const Verified& v = verified[i];
    p.tally.merge(v.tally);
    p.latency_ms.push_back(job.latency_ms);
    if (v.key) p.key_ms.push_back(v.key_ms);
    p.audit_s += v.audit_s;
    if (book.find(job.input.id) != nullptr) ++checked;
    if (v.tally.failed() > 0) continue;
    ++p.ok_count;
    book.add(job.input.id, qor_of(job.result));
    p.flow_s += job.result.seconds;
    p.decomp_successes += job.result.stats.decomp_successes;
    p.qor_phi.push_back(std::max(job.result.phi, 1));
    p.qor_luts.push_back(std::max(job.result.luts, 1));
  }
  p.notes.push_back(book.finish(p.tally, checked));
  return p;
}

// ---------------------------------------------------------------------------
// serve_mixed: an in-process daemon, three closed-loop socket clients.

/// One daemon with its cache and connected clients. Destruction drains the
/// server and removes the cache directory.
class ServeRig {
 public:
  ServeRig(const std::string& dir, ts::TraceSink* sink) : dir_(dir) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_ + "/cache");
    cache_ = std::make_unique<ts::FlowCache>(dir_ + "/cache");
    cache_->enable_hot_tier(kHotTierBytes);
    ts::MappingServerOptions options;
    options.socket_path = dir_ + "/tsd.sock";
    options.workers = kServeWorkers;
    options.cache = cache_.get();
    options.flow.trace = sink;
    server_ = std::make_unique<ts::MappingServer>(options);
    server_->start();
    for (int k = 0; k < kServeClients; ++k) {
      clients_.push_back(std::make_unique<LineClient>(options.socket_path));
    }
  }
  ~ServeRig() {
    stop();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  ts::MappingServer& server() { return *server_; }
  LineClient& client(int k) { return *clients_[static_cast<std::size_t>(k)]; }
  /// Drains the server now (counters stay readable).
  void stop() {
    clients_.clear();
    server_->request_shutdown();
    server_->wait();
  }

 private:
  std::string dir_;
  std::unique_ptr<ts::FlowCache> cache_;
  std::unique_ptr<ts::MappingServer> server_;
  std::vector<std::unique_ptr<LineClient>> clients_;
};

/// The request line body after the id: client-independent, built once.
std::string request_tail(const CircuitInput& c) {
  std::string out;
  if (c.flow == "portfolio") {
    out += ",\"portfolio\":\"";
    out += kPortfolio;
    out += "\"";
  } else {
    out += ",\"flow\":\"" + c.flow + "\"";
  }
  out += ",\"blif\":";
  ts::json_append_string(out, c.blif);
  out += "}";
  return out;
}

/// Direct (in-process, uncached) result of one distinct circuit, checked.
struct Reference {
  Qor qor;
  Verified verified;
  bool done = false;
  double parse_ms = 0.0;
  std::int64_t decomp_successes = 0;
};

Reference reference_run(const CircuitInput& c, ts::TraceSink* sink, const Qor* expected) {
  Reference ref;
  ts::FlowOptions options;
  options.num_threads = 1;  // what the daemon's workers run
  options.collect_artifacts = true;
  try {
    double s = now_seconds();
    ts::Circuit circuit;
    {
      ts::TraceSpan span(sink, "netlist:read_blif_string", c.id);
      circuit = ts::read_blif_string(c.blif, c.id);
    }
    ref.parse_ms = (now_seconds() - s) * 1e3;
    std::vector<const ts::EngineSpec*> engines;
    if (c.flow == "portfolio") {
      const std::string invalid = ts::parse_portfolio(kPortfolio, engines);
      if (!invalid.empty()) throw std::runtime_error(invalid);
    }
    s = now_seconds();
    {
      ts::TraceSpan span(sink, "netlist:make_cache_key", c.id);
      ref.verified.key = engines.empty() ? ts::make_cache_key(circuit, options, kind_of(c.flow))
                                         : ts::make_portfolio_cache_key(circuit, options, engines);
    }
    ref.verified.key_ms = (now_seconds() - s) * 1e3;
    ts::FlowResult result;
    {
      ts::TraceSpan span(sink, "verify:reference_run", c.id);
      if (engines.empty()) {
        result = ts::run_flow(kind_of(c.flow), circuit, options);
      } else {
        ts::PortfolioOptions popt;
        popt.concurrent = false;  // as the daemon's workers race
        result = ts::run_portfolio(engines, circuit, options, popt);
      }
    }
    ts::FlowOptions audit_options = options;
    if (const ts::EngineSpec* winner = ts::find_engine(result.engine); winner != nullptr) {
      audit_options = winner->apply(options);
    }
    {
      ts::TraceSpan span(sink, "verify:audit_flow", c.id);
      ref.done = check_flow_result(c.id, circuit, result, audit_options, expected,
                                   ref.verified.tally, &ref.verified.audit_s);
    }
    ref.qor = qor_of(result);
    ref.decomp_successes = result.stats.decomp_successes;
  } catch (const std::exception& e) {
    ref.verified.tally.fail(c.id + ": reference run threw: " + e.what());
  }
  return ref;
}

PassResult serve_pass(const RunOptions& o, ts::TraceSink* sink) {
  PassResult p;
  p.served = true;

  std::vector<double> setups;
  ServeStream stream;
  std::vector<std::string> tails;
  std::unique_ptr<ServeRig> rig;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    rig.reset();
    const double t = now_seconds();
    stream = serve_stream(o.seed, operation_count(o));
    tails.clear();
    for (const CircuitInput& c : stream.circuits) tails.push_back(request_tail(c));
    rig = std::make_unique<ServeRig>(o.work_dir + "/serve" + std::to_string(rep), sink);
    setups.push_back(now_seconds() - t);
  }
  p.setup_s = median(setups);

  const int total = static_cast<int>(stream.requests.size());
  std::vector<std::string> replies(static_cast<std::size_t>(total));
  std::vector<double> latency(static_cast<std::size_t>(total), 0.0);
  std::vector<std::string> errors(static_cast<std::size_t>(total));
  std::atomic<int> next{0};
  p.before = rig->server().snapshot();
  const double cpu0 = process_cpu_seconds();
  const double t0 = now_seconds();
  std::vector<std::thread> clients;
  for (int k = 0; k < kServeClients; ++k) {
    clients.emplace_back([&, k] {
      LineClient& client = rig->client(k);
      const std::string head = ",\"client\":\"c" + std::to_string(k) + "\"";
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= total) break;
        const auto idx = static_cast<std::size_t>(i);
        const std::string line = "{\"op\":\"map\",\"id\":" + std::to_string(i) + head +
                                 tails[static_cast<std::size_t>(stream.requests[idx])];
        const double s = now_seconds();
        try {
          replies[idx] = client.call(line);
        } catch (const std::exception& e) {
          errors[idx] = e.what();
        }
        latency[idx] = (now_seconds() - s) * 1e3;
      }
    });
  }
  for (std::thread& th : clients) th.join();
  p.wall_s = now_seconds() - t0;
  p.cpu_s = process_cpu_seconds() - cpu0;
  p.after = rig->server().snapshot();
  rig->stop();
  p.executed = total;

  // Checks, after the timed window: one direct run per distinct circuit,
  // audited and compared with the expected file; every reply must equal it.
  ExpectedBook book(o);
  std::vector<int> distinct(stream.requests);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  std::vector<Reference> refs(stream.circuits.size());  // by circuit index
  parallel_for(static_cast<int>(distinct.size()), host_threads(), [&](int j) {
    const auto c = static_cast<std::size_t>(distinct[static_cast<std::size_t>(j)]);
    refs[c] = reference_run(stream.circuits[c], sink, book.find(stream.circuits[c].id));
  });
  // Circuits with one canonical key must share one result.
  std::map<std::string, Qor> by_key;
  std::int64_t checked = 0;
  for (const int c : distinct) {
    Reference& ref = refs[static_cast<std::size_t>(c)];
    const CircuitInput& input = stream.circuits[static_cast<std::size_t>(c)];
    p.parse_ms.push_back(ref.parse_ms);
    p.decomp_successes += ref.decomp_successes;
    p.audit_s += ref.verified.audit_s;
    if (ref.verified.key) {
      p.key_ms.push_back(ref.verified.key_ms);
      const auto [it, fresh] = by_key.emplace(ref.verified.key->text, ref.qor);
      if (!fresh && !(it->second == ref.qor)) {
        ref.done = false;
        ref.verified.tally.fail(input.id + ": same canonical key, different result");
      }
    }
    if (book.find(input.id) != nullptr) ++checked;
    if (ref.done) book.add(input.id, ref.qor);
  }
  for (int i = 0; i < p.executed; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const Reference& ref = refs[static_cast<std::size_t>(stream.requests[idx])];
    const std::string& id = stream.circuits[static_cast<std::size_t>(stream.requests[idx])].id;
    p.latency_ms.push_back(latency[idx]);
    if (!errors[idx].empty()) {
      p.tally.fail("request " + std::to_string(i) + " (" + id + "): " + errors[idx]);
      continue;
    }
    if (!ref.done) {
      const auto& reasons = ref.verified.tally.reasons();
      p.tally.fail("request " + std::to_string(i) + " (" + id + "): reference failed: " +
                   (reasons.empty() ? std::string("?") : reasons.front()));
      continue;
    }
    if (!check_reply(replies[idx], ref.qor, p.tally)) continue;
    ++p.ok_count;
    p.qor_phi.push_back(std::max(ref.qor.phi, 1));
    p.qor_luts.push_back(std::max(ref.qor.luts, 1));
    std::vector<std::pair<std::string, ts::JsonScalar>> fields;
    ts::parse_flat_json_object(replies[idx], fields);
    ts::JsonScalar hit;
    ts::JsonScalar seconds;
    const bool cache_hit = get_field(fields, "cache_hit", hit) && hit.boolean;
    (cache_hit ? p.hit_ms : p.miss_ms).push_back(latency[idx]);
    if (get_field(fields, "seconds", seconds)) {
      p.wait_ms.push_back(std::max(0.0, latency[idx] - std::stod(seconds.text) * 1e3));
    }
  }
  p.flow_s = p.after.flow_seconds - p.before.flow_seconds;
  p.notes.push_back(book.finish(p.tally, checked));
  int edits = 0;
  for (int i = 0; i < p.executed; ++i) {
    if (stream.kinds[static_cast<std::size_t>(i)] == ServeStream::Kind::kEdit) ++edits;
  }
  p.notes.push_back("stream: " + std::to_string(p.executed) + " requests over " +
                    std::to_string(distinct.size()) + " distinct circuits (" +
                    std::to_string(edits) + " one-gate edits), digest " +
                    std::to_string(stream_digest(stream)));
  return p;
}

// ---------------------------------------------------------------------------
// Metrics.

std::vector<Metric> end_to_end_metrics(const PassResult& p, std::vector<std::string>& notes) {
  const double n = std::max(1, p.executed);
  const auto pct = [&](double q, const char* name) {
    const std::optional<double> v = percentile(p.latency_ms, q);
    if (!v) notes.push_back(std::string("error: too few samples for ") + name);
    return v.value_or(0.0);
  };
  return {
      {"setup_s", "s", p.setup_s},
      {"throughput_cps", "1/s", static_cast<double>(p.ok_count) / std::max(p.wall_s, 1e-9)},
      {"latency_p50_ms", "ms", pct(0.5, "latency_p50_ms")},
      {"latency_p90_ms", "ms", pct(0.9, "latency_p90_ms")},
      {"cpu_ms_per_circuit", "ms", p.cpu_s * 1e3 / n},
      {"phi_geomean", "ratio", geomean(p.qor_phi)},
      {"luts_geomean", "count", geomean(p.qor_luts)},
      {"peak_rss_mb", "MiB", peak_rss_mb()},
  };
}

std::vector<Metric> layer_metrics(const PassResult& p, const std::vector<ts::TraceEvent>& events,
                                  double overhead_ratio) {
  std::map<std::string, double> stage_s;
  std::map<std::string, double> count;
  for (const ts::TraceEvent& e : events) {
    if (e.name.rfind("stage:", 0) != 0) continue;
    stage_s[e.name.substr(6)] += e.seconds;
    for (const auto& [name, value] : e.counters) count[name] += static_cast<double>(value);
  }
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto p50 = [](const std::vector<double>& v) { return percentile(v, 0.5).value_or(median(v)); };
  std::map<std::string, double> self = layer_self_seconds(events);
  self["service"] = 0.0;
  for (const double w : p.wait_ms) self["service"] += w / 1e3;

  const ts::StatsSnapshot& a = p.after;
  const ts::StatsSnapshot& b = p.before;
  const double hits = static_cast<double>(a.cache_hits - b.cache_hits);
  const double misses = static_cast<double>(a.cache_misses - b.cache_misses);
  const double workers = p.served ? static_cast<double>(kServeWorkers) : 0.0;
  const double labels = count["labels_computed"];
  const double skipped = count["nodes_skipped"];
  const double attempts = count["decomp_attempts"];

  std::vector<Metric> m = {
      {"retime.pipeline_retime_s", "s", stage_s["pipeline-retime"]},
      {"retime.configs_tried", "count", count["retime_configs"]},
      {"retime.share_of_flow", "ratio", ratio(stage_s["pipeline-retime"], p.flow_s)},
      {"core.phi_search_s", "s", stage_s["phi-search"]},
      {"core.ub_probe_s", "s", stage_s["ub-probe"]},
      {"core.mapgen_s", "s", stage_s["mapgen"]},
      {"core.cached_search_s", "s", stage_s["cached-search"]},
      {"core.probes", "count", count["probes"]},
      {"core.imported_probes", "count", count["imported_probes"]},
      {"core.labels_computed", "count", labels},
      {"core.nodes_skipped", "count", skipped},
      {"core.skip_ratio", "ratio", ratio(skipped, labels + skipped)},
      {"core.cut_tests", "count", count["cut_tests"]},
      {"graph.flow_augmentations", "count", count["flow_augmentations"]},
      {"decomp.attempts", "count", attempts},
      {"decomp.successes", "count", static_cast<double>(p.decomp_successes)},
      {"decomp.success_ratio", "ratio", ratio(static_cast<double>(p.decomp_successes), attempts)},
      {"decomp.memo_hits", "count", count["decomp_cache_hits"]},
      {"decomp.memo_hit_ratio", "ratio",
       ratio(count["decomp_cache_hits"], count["decomp_cache_hits"] + attempts)},
      {"mapping.pack_s", "s", stage_s["pack"]},
      {"cache.hits", "count", hits},
      {"cache.misses", "count", misses},
      {"cache.hit_ratio", "ratio", ratio(hits, hits + misses)},
      {"cache.near_hits", "count", static_cast<double>(a.cache_near_hits - b.cache_near_hits)},
      {"cache.hot_hits", "count", static_cast<double>(a.hot_hits - b.hot_hits)},
      {"cache.hot_evictions", "count", static_cast<double>(a.hot_evictions - b.hot_evictions)},
      {"cache.stores", "count", static_cast<double>(a.cache_stores - b.cache_stores)},
      {"cache.hit_latency_p50_ms", "ms", p50(p.hit_ms)},
      {"cache.miss_latency_p50_ms", "ms", p50(p.miss_ms)},
      {"netlist.parse_ms", "ms", median(p.parse_ms)},
      {"netlist.canonical_key_ms", "ms", median(p.key_ms)},
      {"service.wait_ms_p50", "ms", p50(p.wait_ms)},
      {"service.wait_ms_p90", "ms", percentile(p.wait_ms, 0.9).value_or(0.0)},
      {"service.worker_busy_ratio", "ratio", ratio(p.flow_s, p.wall_s * workers)},
      {"service.rejected", "count", static_cast<double>(a.rejected - b.rejected)},
      {"portfolio.runs", "count", static_cast<double>(a.portfolio_runs - b.portfolio_runs)},
      {"portfolio.cancelled_engines", "count",
       static_cast<double>(a.portfolio_cancelled_engines - b.portfolio_cancelled_engines)},
      {"portfolio.saved_s", "s", a.portfolio_saved_seconds - b.portfolio_saved_seconds},
      {"verify.audit_s", "s", p.audit_s},
      {"trace.overhead_ratio", "ratio", overhead_ratio},
  };
  for (const char* layer : {"netlist", "core", "mapping", "retime", "cache", "service", "verify"}) {
    m.push_back({std::string(layer) + ".self_s", "s", self[layer]});
  }
  return m;
}

PassResult run_pass(const RunOptions& o, ts::TraceSink* sink) {
  if (o.workload == "table1_turbomap") return cold_pass(o, false, sink);
  if (o.workload == "small_turbosyn") return cold_pass(o, true, sink);
  return serve_pass(o, sink);
}

}  // namespace

int workload_threads(const std::string& workload) {
  return workload == "table1_turbomap" ? host_threads() : 1;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"table1_turbomap", "small_turbosyn",
                                                 "serve_mixed"};
  return names;
}

std::string expected_file_name(const RunOptions& o) {
  return o.workload + ".seed" + std::to_string(o.seed) + ".ops" +
         std::to_string(operation_count(o)) + ".threads" +
         std::to_string(workload_threads(o.workload)) + ".txt";
}

std::optional<std::map<std::string, Qor>> load_expected(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::map<std::string, Qor> entries;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string id;
    Qor q;
    if (fields >> id >> q.phi >> q.luts >> q.ffs) entries[id] = q;
  }
  return entries;
}

bool write_expected(const std::string& path, const std::string& header,
                    const std::map<std::string, Qor>& entries) {
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  if (!out) return false;
  out << header << "\n# id phi luts ffs\n";
  for (const auto& [id, q] : entries) out << id << ' ' << q.phi << ' ' << q.luts << ' ' << q.ffs << '\n';
  return static_cast<bool>(out);
}

bool check_flow_result(const std::string& id, const ts::Circuit& input,
                       const ts::FlowResult& result, const ts::FlowOptions& options,
                       const Qor* expected, Tally& tally, double* audit_seconds) {
  if (result.status != ts::Status::kOk) {
    tally.fail(id + ": status " + ts::status_name(result.status));
    return false;
  }
  const double s = now_seconds();
  const ts::AuditReport report = ts::audit_flow(input, result, options);
  if (audit_seconds != nullptr) *audit_seconds += now_seconds() - s;
  if (!report.passed()) {
    tally.fail(id + ": audit failed: " + report.breakdown());
    return false;
  }
  if (expected != nullptr && !(*expected == qor_of(result))) {
    tally.fail(id + ": expected " + qor_text(*expected) + ", got " + qor_text(qor_of(result)));
    return false;
  }
  tally.ok();
  return true;
}

namespace {

/// φ/LUTs/FFs of a reply, or nullopt when it is not a successful result.
std::optional<Qor> reply_qor(const std::string& reply) {
  std::vector<std::pair<std::string, ts::JsonScalar>> fields;
  if (!ts::parse_flat_json_object(reply, fields)) return std::nullopt;
  ts::JsonScalar v;
  if (!get_field(fields, "reply", v) || v.text != "result") return std::nullopt;
  if (!get_field(fields, "ok", v) || !v.boolean) return std::nullopt;
  if (!get_field(fields, "status", v) || v.text != "ok") return std::nullopt;
  Qor q;
  try {
    if (!get_field(fields, "phi", v)) return std::nullopt;
    q.phi = std::stoi(v.text);
    if (!get_field(fields, "luts", v)) return std::nullopt;
    q.luts = std::stoi(v.text);
    if (!get_field(fields, "ffs", v)) return std::nullopt;
    q.ffs = std::stoll(v.text);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  return q;
}

}  // namespace

bool check_reply(const std::string& reply, const Qor& reference, Tally& tally) {
  const std::optional<Qor> got = reply_qor(reply);
  if (!got) {
    tally.fail("not a successful result: " + reply.substr(0, 200));
    return false;
  }
  if (!(*got == reference)) {
    tally.fail("reply " + qor_text(*got) + " differs from run_flow " + qor_text(reference));
    return false;
  }
  tally.ok();
  return true;
}

RunReport run_workload(const RunOptions& o) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    throw std::runtime_error("unknown workload '" + o.workload + "'");
  }
  RunReport report;
  report.threads = workload_threads(o.workload);
  PassResult measured;
  if (!o.trace) {
    measured = run_pass(o, nullptr);
    report.metrics = end_to_end_metrics(measured, report.notes);
  } else {
    // Same inputs twice: untraced for the reference wall time, then traced.
    const PassResult plain = run_pass(o, nullptr);
    ts::TraceSink sink;
    measured = run_pass(o, &sink);
    measured.tally.merge(plain.tally);
    report.metrics = layer_metrics(measured, sink.events(),
                                   measured.wall_s / std::max(plain.wall_s, 1e-9));
  }
  report.tally = measured.tally;
  report.latency_samples = static_cast<std::int64_t>(measured.latency_ms.size());
  for (std::string& n : measured.notes) report.notes.push_back(std::move(n));
  return report;
}

}  // namespace synthbench
