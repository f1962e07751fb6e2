// FlowDriver / ProbeLedger / trace tests: the stage pipeline's contracts.
//
//   - the ProbeLedger guarantees each (mode, phi) is probed at most once per
//     run (duplicate record() throws; flow results carry a duplicate-free
//     ledger export);
//   - the driver enforces the artifact contract: a stage whose consumed
//     artifact is missing, or whose produced artifact already exists, fails
//     loudly before running;
//   - StageMetrics account for the flow's wall time (within tolerance) and
//     carry the counters the stages emit;
//   - the TraceSink's span tree is well-formed and its JSON serialization is
//     valid and consistent with the flow's own timing.

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "base/check.hpp"
#include "base/trace.hpp"
#include "core/driver.hpp"
#include "core/flows.hpp"
#include "core/stages/mapgen_stage.hpp"
#include "core/stages/ub_probe.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"

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

// Each (mode, phi) appears at most once in a flow's exported ledger — the
// ISSUE's "no phi probed twice per run" guarantee, across both TurboSYN
// phases sharing one ledger.
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

TEST(FlowDriver, MissingConsumedArtifactThrows) {
  const Circuit c = small_fsm();
  FlowOptions opt;
  FlowDriver driver(c, opt);
  // MapGen consumes kWinningLabels, which no stage has produced.
  MapGenStage mapgen;
  EXPECT_THROW(driver.run(mapgen), Error);
}

TEST(FlowDriver, DuplicateProducedArtifactThrows) {
  const Circuit c = small_fsm();
  FlowOptions opt;
  FlowDriver driver(c, opt);
  UbProbeStage ub(UbProbeStage::Kind::kIdentityMdr);
  driver.run(ub);
  UbProbeStage again(UbProbeStage::Kind::kClockPeriod);
  EXPECT_THROW(driver.run(again), Error);
}

TEST(FlowDriver, StageMetricsAccountForFlowTime) {
  const Circuit c = small_fsm();
  FlowOptions opt;
  const FlowResult r = run_turbomap(c, opt);
  ASSERT_EQ(r.stage_metrics.stages.size(), 5u);
  const char* expected[] = {"ub-probe", "phi-search", "mapgen", "pack", "pipeline-retime"};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(r.stage_metrics.stages[i].name, expected[i]);
    EXPECT_GE(r.stage_metrics.stages[i].seconds, 0.0);
  }
  // The stages are the flow: their wall times must sum to the flow's own
  // (within 5%, plus absolute slack for scheduler noise on tiny runs).
  const double sum = r.stage_metrics.total_seconds();
  EXPECT_LE(sum, r.seconds * 1.05 + 2e-3);
  EXPECT_GE(sum, r.seconds * 0.95 - 2e-3);
  // The search stage carries the label-engine counters.
  const StageMetric* search = r.stage_metrics.find("phi-search");
  ASSERT_NE(search, nullptr);
  EXPECT_EQ(search->counter("probes"), static_cast<std::int64_t>(r.probes.size()));
  EXPECT_GT(search->counter("labels_computed"), 0);
  EXPECT_EQ(search->counter("no_such_counter"), 0);
  // Stage counters are deltas of the accumulated stats: summed over the
  // whole timeline they reproduce the flow totals exactly.
  std::int64_t label_sum = 0;
  for (const StageMetric& stage : r.stage_metrics.stages) {
    label_sum += stage.counter("labels_computed");
  }
  EXPECT_EQ(label_sum, r.stats.node_updates);
}

TEST(FlowDriver, TurboSynConcatenatesPhaseTimelines) {
  const Circuit c = tiny_fsm();
  FlowOptions opt;
  const FlowResult r = run_turbosyn(c, opt);
  // Two five-stage phases in one timeline, phase A first.
  ASSERT_EQ(r.stage_metrics.stages.size(), 10u);
  EXPECT_EQ(r.stage_metrics.stages[0].name, "ub-probe");
  EXPECT_EQ(r.stage_metrics.stages[5].name, "ub-probe");
  const double sum = r.stage_metrics.total_seconds();
  EXPECT_LE(sum, r.seconds * 1.05 + 2e-3);
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
