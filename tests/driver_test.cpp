// Stage boundary / ProbeLedger / trace tests: the contracts of a flow run.
//
//   - the ProbeLedger guarantees each (mode, phi) is probed at most once per
//     run (duplicate record() throws; flow results carry a duplicate-free
//     ledger export);
//   - every engine runs its stages in a fixed order, and StageMetrics
//     account for the flow's wall time (within tolerance) and carry the
//     counters the stages emit;
//   - the TraceSink's span tree is well-formed and its JSON serialization is
//     valid and consistent with the flow's own timing.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/check.hpp"
#include "base/trace.hpp"
#include "cache/cached_flow.hpp"
#include "core/engines.hpp"
#include "core/flows.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"
#include "test_dir.hpp"

namespace turbosyn {
namespace {

Circuit small_fsm() {
  BenchmarkSpec spec;
  spec.name = "driver_test_fsm";
  spec.seed = 33;
  spec.num_pis = 5;
  spec.num_pos = 4;
  spec.num_gates = 120;
  spec.feedback = 0.08;
  return generate_fsm_circuit(spec);
}

/// Smaller circuit for the TurboSYN-based tests: the decomposition scan
/// dominates their runtime.
Circuit tiny_fsm() {
  BenchmarkSpec spec;
  spec.name = "driver_test_tiny";
  spec.seed = 19;
  spec.num_pis = 4;
  spec.num_pos = 3;
  spec.num_gates = 36;
  spec.feedback = 0.1;
  return generate_fsm_circuit(spec);
}

TEST(ProbeLedger, DuplicateRecordThrows) {
  ProbeLedger ledger;
  ProbeRecord r;
  r.phi = 3;
  r.mode = LabelMode::kPlain;
  r.feasible = true;
  ledger.record(r);
  EXPECT_TRUE(ledger.contains(LabelMode::kPlain, 3));
  EXPECT_FALSE(ledger.contains(LabelMode::kDecomp, 3));
  EXPECT_FALSE(ledger.contains(LabelMode::kPlain, 2));
  // Same phi under the other mode is a distinct key.
  r.mode = LabelMode::kDecomp;
  ledger.record(r);
  EXPECT_EQ(ledger.size(), 2u);
  // Re-recording an existing key must fail loudly.
  EXPECT_THROW(ledger.record(r), Error);
  ASSERT_NE(ledger.find(LabelMode::kPlain, 3), nullptr);
  EXPECT_EQ(ledger.find(LabelMode::kPlain, 3)->phi, 3);
  EXPECT_EQ(ledger.find(LabelMode::kDecomp, 2), nullptr);
}

TEST(ProbeLedger, ClassifyProbeSoundness) {
  LabelResult r;
  r.feasible = true;
  r.status = Status::kOk;
  EXPECT_EQ(classify_probe(r), ProbeOutcome::kOk);
  r.feasible = false;
  EXPECT_EQ(classify_probe(r), ProbeOutcome::kInfeasible);
  // A degraded infeasible verdict is NOT a divergence certificate.
  r.status = Status::kDegraded;
  EXPECT_EQ(classify_probe(r), ProbeOutcome::kDegraded);
  r.status = Status::kDeadlineExceeded;
  EXPECT_EQ(classify_probe(r), ProbeOutcome::kInterrupted);
  r.status = Status::kCancelled;
  EXPECT_EQ(classify_probe(r), ProbeOutcome::kInterrupted);
}

TEST(ProbeLedger, HashTiesLabelsToRecords) {
  const std::vector<int> a{0, 1, 2, 3};
  const std::vector<int> b{0, 1, 2, 4};
  EXPECT_EQ(hash_labels(a), hash_labels(a));
  EXPECT_NE(hash_labels(a), hash_labels(b));
  EXPECT_NE(hash_labels(a), 0u);
}

// Each (mode, phi) appears at most once in a flow's exported ledger: no φ is
// probed twice per run, across TurboSYN's TurboMap search and its
// decomposition scan, which record into the run's one ledger.
TEST(FlowDriver, NoPhiProbedTwicePerRun) {
  const Circuit c = tiny_fsm();
  FlowOptions opt;
  const FlowResult r = run_turbosyn(c, opt);
  ASSERT_FALSE(r.probes.empty());
  std::map<std::pair<int, int>, int> seen;
  for (const ProbeRecord& rec : r.probes) {
    const auto key = std::make_pair(static_cast<int>(rec.mode), rec.phi);
    EXPECT_EQ(++seen[key], 1) << "phi=" << rec.phi << " mode=" << label_mode_name(rec.mode)
                              << " probed twice";
  }
  // The decomposition scan starts from TurboMap's certificate: exactly one
  // imported record, at (decomp, TurboMap's phi), feasible, with no stats.
  int imported = 0;
  for (const ProbeRecord& rec : r.probes) {
    if (!rec.imported) continue;
    ++imported;
    EXPECT_EQ(rec.mode, LabelMode::kDecomp);
    EXPECT_TRUE(rec.feasible);
    EXPECT_EQ(rec.stats.sweeps, 0);
    EXPECT_EQ(rec.seconds, 0.0);
  }
  EXPECT_EQ(imported, 1);
}

// The stage timeline of every engine and of a cache hit that replays the
// mapping: stage names in order, stage wall times that sum to the flow's own,
// and per-stage label counters that sum to the flow totals.
TEST(FlowDriver, StageMetricsAccountForFlowTime) {
  const std::vector<std::string> search = {"ub-probe", "phi-search", "mapgen", "pack",
                                           "pipeline-retime"};
  // TurboSYN: TurboMap's bound and bisection, the descending decomposition
  // scan, then one mapping tail.
  const std::vector<std::string> seeded = {"ub-probe", "phi-search", "phi-search",
                                           "mapgen",   "pack",       "pipeline-retime"};
  const Circuit small = small_fsm();
  const Circuit tiny = tiny_fsm();
  FlowOptions opt;
  struct Case {
    std::string name;
    FlowResult result;
    std::vector<std::string> stages;
  };
  std::vector<Case> cases;
  const auto add_engine = [&](const std::string& name, const Circuit& c,
                              std::vector<std::string> stages) {
    const EngineSpec* spec = find_engine(name);
    ASSERT_NE(spec, nullptr) << name;
    cases.push_back({name, run_engine(*spec, c, opt), std::move(stages)});
  };
  add_engine("turbomap", small, search);
  add_engine("turbosyn", tiny, seeded);
  add_engine("flowsyn_s", small, {"flowsyn-map", "pack", "pipeline-retime"});
  add_engine("turbomap_period", small, search);

  FlowCache cache(unique_test_dir("ts_driver_test_", "timeline").string());
  run_flow_cached(FlowKind::kTurboMap, small, opt, &cache);
  FlowOptions replay = opt;
  replay.collect_artifacts = true;
  CacheRunInfo info;
  FlowResult hit = run_flow_cached(FlowKind::kTurboMap, small, replay, &cache, &info);
  ASSERT_TRUE(info.hit);
  cases.push_back({"cache hit", std::move(hit), {"cached-search", "mapgen", "pack",
                                                 "pipeline-retime"}});

  for (const Case& k : cases) {
    SCOPED_TRACE(k.name);
    const FlowResult& r = k.result;
    ASSERT_EQ(r.status, Status::kOk);
    ASSERT_EQ(r.stage_metrics.stages.size(), k.stages.size());
    for (std::size_t i = 0; i < k.stages.size(); ++i) {
      EXPECT_EQ(r.stage_metrics.stages[i].name, k.stages[i]);
      EXPECT_GE(r.stage_metrics.stages[i].seconds, 0.0);
    }
    // The stages are the flow: their wall times must sum to the flow's own
    // (within 5%, plus absolute slack for scheduler noise on tiny runs).
    const double sum = r.stage_metrics.total_seconds();
    EXPECT_LE(sum, r.seconds * 1.05 + 2e-3);
    EXPECT_GE(sum, r.seconds * 0.95 - 2e-3);
    // Stage counters are deltas of the accumulated stats: summed over the
    // whole timeline they reproduce the flow totals exactly.
    std::int64_t label_sum = 0;
    for (const StageMetric& stage : r.stage_metrics.stages) {
      label_sum += stage.counter("labels_computed");
    }
    EXPECT_EQ(label_sum, r.stats.node_updates);
  }

  // The search stage carries the label-engine counters.
  const FlowResult& turbomap = cases.front().result;
  const StageMetric* search_stage = turbomap.stage_metrics.find("phi-search");
  ASSERT_NE(search_stage, nullptr);
  EXPECT_EQ(search_stage->counter("probes"), static_cast<std::int64_t>(turbomap.probes.size()));
  EXPECT_GT(search_stage->counter("labels_computed"), 0);
  EXPECT_EQ(search_stage->counter("no_such_counter"), 0);
}

TEST(Trace, SpanTreeIsWellFormedAndTimed) {
  const Circuit c = tiny_fsm();
  TraceSink sink;
  FlowOptions opt;
  opt.trace = &sink;
  const FlowResult r = run_turbosyn(c, opt);

  const auto events = sink.events();
  ASSERT_FALSE(events.empty());
  int roots = 0;
  std::map<int, const TraceEvent*> by_id;
  for (const TraceEvent& e : events) by_id[e.id] = &e;
  for (const TraceEvent& e : events) {
    EXPECT_GE(e.seconds, 0.0);
    if (e.parent == -1) {
      ++roots;
      EXPECT_EQ(e.depth, 0);
    } else {
      ASSERT_TRUE(by_id.count(e.parent)) << "span " << e.id << " has unknown parent";
      EXPECT_EQ(e.depth, by_id[e.parent]->depth + 1);
      EXPECT_LT(e.parent, e.id) << "parents open before their children";
    }
  }
  // One flow invocation: exactly one root span, covering the run.
  EXPECT_EQ(roots, 1);
  EXPECT_EQ(events[0].name, "flow:turbosyn");
  EXPECT_NEAR(sink.total_seconds(), r.seconds, r.seconds * 0.05 + 2e-3);
  // Counters roll up: the probe spans account for every ledger record that
  // was actually probed (imported certificates open no span).
  const auto totals = sink.totals();
  ASSERT_TRUE(totals.count("probes"));
  std::int64_t probed = 0;
  for (const ProbeRecord& rec : r.probes) probed += rec.imported ? 0 : 1;
  EXPECT_EQ(totals.at("probes"), probed);

  // Serialization: stable schema markers, one span object per event.
  const std::string json = sink.to_json();
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"total_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"flow:turbosyn\""), std::string::npos);
  EXPECT_NE(json.find("\"stage:phi-search\""), std::string::npos);
  std::size_t span_objects = 0;
  for (std::size_t pos = json.find("\"id\":"); pos != std::string::npos;
       pos = json.find("\"id\":", pos + 1)) {
    ++span_objects;
  }
  EXPECT_EQ(span_objects, events.size());
}

TEST(Trace, InertSpansCostNothingAndRecordNothing) {
  TraceSpan inert;  // default-constructed: no sink
  EXPECT_FALSE(inert.enabled());
  inert.counter("ignored", 7);
  EXPECT_EQ(inert.seconds_so_far(), 0.0);
  TraceSink sink;
  {
    TraceSpan span(&sink, "outer");
    TraceSpan child(&sink, "inner", "detail");
    child.counter("c", 2);
    child.counter("c", 3);
  }
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  // Children close (and post) before their parents; ids are in open order.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].parent, events[0].id);
  EXPECT_EQ(events[1].detail, "detail");
  ASSERT_EQ(events[1].counters.size(), 1u);
  EXPECT_EQ(events[1].counters[0].second, 5);  // accumulated by name
}

}  // namespace
}  // namespace turbosyn
