#include "core/driver.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "base/check.hpp"
#include "base/failpoint.hpp"
#include "base/trace.hpp"

namespace turbosyn {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void add_counter(StageMetric& metric, const char* name, std::int64_t value) {
  if (value == 0) return;
  for (auto& [n, v] : metric.counters) {
    if (n == name) {
      v += value;
      return;
    }
  }
  metric.counters.emplace_back(name, value);
}

}  // namespace

FlowContext::FlowContext(const Circuit& input_circuit, const FlowOptions& flow_options)
    : input(input_circuit), options(flow_options), trace(flow_options.trace) {}

void FlowContext::count(const char* counter_name, std::int64_t value) {
  if (current_metric_ != nullptr) add_counter(*current_metric_, counter_name, value);
}

void FlowContext::run_stage(const char* name, const std::function<void()>& body) {
  // A failed stage leaves its outputs half-made: nothing after it runs.
  if (result.status == Status::kFailed) return;
  StageMetric metric;
  metric.name = name;
  // Snapshot the shared stats so the metric reports this stage's delta.
  const LabelStats before = result.stats;
  TraceSpan span(trace, std::string("stage:") + name);
  const auto start = Clock::now();
  current_metric_ = &metric;
  // Containment boundary: a stage that throws — a real defect or an armed
  // "driver.stage" failpoint — is recorded as kFailed with the stage named,
  // and the flow stops instead of the process dying. A failed run is never
  // a certificate and never cacheable (FlowCache::storable).
  try {
    if (failpoint::enabled()) {
      const std::string scoped = std::string("driver.stage.") + name;
      for (const std::string& site : {scoped, std::string("driver.stage")}) {
        if (failpoint::check(site.c_str()).action == failpoint::Action::kError) {
          throw Error("failpoint " + site);
        }
      }
    }
    body();
  } catch (const std::exception& e) {
    result.status = combine_status(result.status, Status::kFailed);
    result.failed_stage = name;
    result.failure = e.what();
    span.set_detail(std::string("failed: ") + e.what());
    add_counter(metric, "failed", 1);
  }
  current_metric_ = nullptr;
  metric.seconds = seconds_since(start);
  const LabelStats& after = result.stats;
  add_counter(metric, "labels_computed", after.node_updates - before.node_updates);
  add_counter(metric, "cut_tests", after.cut_tests - before.cut_tests);
  add_counter(metric, "cut_reuses", after.cut_reuses - before.cut_reuses);
  add_counter(metric, "cut_refutations", after.cut_refutations - before.cut_refutations);
  add_counter(metric, "network_reuses", after.network_reuses - before.network_reuses);
  add_counter(metric, "flow_augmentations",
              after.flow_augmentations - before.flow_augmentations);
  add_counter(metric, "decomp_attempts", after.decomp_attempts - before.decomp_attempts);
  add_counter(metric, "cut_functions", after.cut_functions - before.cut_functions);
  add_counter(metric, "infeasible_scc_updates",
              after.infeasible_scc_updates - before.infeasible_scc_updates);
  for (const auto& [counter_name, value] : metric.counters) span.counter(counter_name, value);
  result.stage_metrics.stages.push_back(std::move(metric));
}

const std::shared_ptr<const SccDecomposition>& FlowContext::input_sccs() {
  if (input_sccs_ == nullptr) {
    input_sccs_ = std::make_shared<const SccDecomposition>(strongly_connected_components(input));
  }
  return input_sccs_;
}

FlowResult FlowContext::finish() {
  result.probes = ledger.records();
  result.timed_out = is_interrupt(result.status);
  std::vector<NodeId> nodes = result.stats.degraded_nodes;
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  result.degraded_nodes.reserve(nodes.size());
  for (const NodeId v : nodes) result.degraded_nodes.push_back(input.name(v));
  return std::move(result);
}

LabelResult ledger_probe(FlowContext& ctx, LabelEngine& engine, LabelMode mode, int phi) {
  TS_CHECK(!ctx.ledger.contains(mode, phi),
           "phi=" << phi << " (" << label_mode_name(mode) << ") already probed this run");
  TraceSpan span(ctx.trace, "probe",
                 std::string(label_mode_name(mode)) + " phi=" + std::to_string(phi));
  const auto start = Clock::now();
  LabelResult r = engine.compute(phi);
  ProbeRecord rec;
  rec.phi = phi;
  rec.mode = mode;
  rec.outcome = classify_probe(r);
  rec.status = r.status;
  rec.feasible = r.feasible;
  rec.label_hash = r.feasible ? hash_labels(r.labels) : 0;
  rec.max_po_label = r.max_po_label;
  rec.stats = r.stats;
  rec.seconds = seconds_since(start);
  span.counter("labels_computed", r.stats.node_updates);
  span.counter("cut_tests", r.stats.cut_tests);
  span.counter("cut_reuses", r.stats.cut_reuses);
  span.counter("cut_refutations", r.stats.cut_refutations);
  span.counter("network_reuses", r.stats.network_reuses);
  span.counter("flow_augmentations", r.stats.flow_augmentations);
  span.counter("decomp_attempts", r.stats.decomp_attempts);
  span.counter("cut_functions", r.stats.cut_functions);
  span.counter("infeasible_scc_updates", r.stats.infeasible_scc_updates);
  ctx.ledger.record(std::move(rec));
  ctx.count("probes", 1);
  return r;
}

}  // namespace turbosyn
