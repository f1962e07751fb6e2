#include <gtest/gtest.h>

#include <algorithm>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "core/flows.hpp"
#include "netlist/gates.hpp"
#include "oracle.hpp"
#include "retime/howard.hpp"
#include "retime/pipeline.hpp"
#include "retime/retiming.hpp"
#include "sim/simulator.hpp"
#include "verify/audit.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"

namespace turbosyn {
namespace {

/// Linear pipeline: pi -> g0 -> g1 -> ... -> po with the given edge weights.
Circuit pipeline_chain(std::span<const int> weights) {
  Circuit c;
  NodeId prev = c.add_pi("in");
  int prev_w = weights.empty() ? 0 : weights[0];
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    const Circuit::FaninSpec fanins[1] = {{prev, prev_w}};
    prev = c.add_gate("g" + std::to_string(i), tt_not(), fanins);
    prev_w = weights[i + 1];
  }
  c.add_po("$po:out", {prev, prev_w});
  c.validate();
  return c;
}

TEST(ClockPeriod, LongestCombinationalPath) {
  // in -> g0 -> g1 -> g2 (no registers) -> po: period = 3.
  EXPECT_EQ(circuit_clock_period(pipeline_chain(std::vector<int>{0, 0, 0, 0})), 3);
  // A register in the middle halves it.
  EXPECT_EQ(circuit_clock_period(pipeline_chain(std::vector<int>{0, 0, 1, 0})), 2);
}

/// The product's retiming without pipelining: the least period from the
/// label scan, applied through its witness.
std::int64_t retime_by_labels(Circuit& c) {
  const PipelineResult p = retime_without_pipelining(c, circuit_mdr_howard(c).ratio);
  EXPECT_EQ(p.stages, 0);
  apply_retiming(c, p.retiming);
  return p.period;
}

TEST(Retiming, BalancesAPipeline) {
  // All registers piled at the input: retiming should spread them out.
  Circuit c = pipeline_chain(std::vector<int>{3, 0, 0, 0});
  EXPECT_EQ(circuit_clock_period(c), 3);
  Circuit by_oracle = c;
  EXPECT_EQ(retime_by_labels(c), 1);
  EXPECT_EQ(circuit_clock_period(c), 1);
  EXPECT_EQ(oracle::retime_min_period(by_oracle), 1);
  EXPECT_EQ(circuit_clock_period(by_oracle), 1);
}

TEST(Retiming, PreservesCycleWeights) {
  Circuit c = generate_fsm_circuit(tiny_suite()[1]);
  const int edges_before = c.num_edges();
  const auto mdr_before = oracle::circuit_mdr(c);
  retime_by_labels(c);
  // Retiming is a potential transformation: every cycle keeps its register
  // count, so the MDR ratio is invariant.
  EXPECT_EQ(oracle::circuit_mdr(c).ratio, mdr_before.ratio);
  EXPECT_EQ(c.num_edges(), edges_before);
}

TEST(Retiming, PipelineBehaviorPreservedAfterWarmup) {
  Circuit original = pipeline_chain(std::vector<int>{3, 0, 0, 0});
  Circuit retimed = original;
  retime_by_labels(retimed);
  Rng rng(41);
  const auto stimulus = random_stimulus(rng, 1, 64);
  const auto a = simulate_sequence(original, stimulus);
  const auto b = simulate_sequence(retimed, stimulus);
  // Acyclic circuit: outputs depend only on the last few inputs, so after a
  // warm-up of the total register depth the streams coincide.
  for (std::size_t t = 4; t < a.size(); ++t) EXPECT_EQ(a[t], b[t]) << t;
}

TEST(Retiming, InfeasibleBelowMdrBound) {
  // Ring of 4 gates, 2 registers: MDR = 2, so period 1 is impossible under
  // retiming alone.
  Circuit c = ring_circuit(4, 2);
  EXPECT_FALSE(oracle::feasible_retiming(c, 1).has_value());
  EXPECT_TRUE(oracle::feasible_retiming(c, 2).has_value());
  EXPECT_EQ(retime_by_labels(c), 2);
}

TEST(Retiming, MinPeriodNeverExceedsInitialPeriod) {
  for (const auto& spec : tiny_suite()) {
    Circuit c = generate_fsm_circuit(spec);
    const std::int64_t before = circuit_clock_period(c);
    const std::int64_t after = retime_by_labels(c);
    EXPECT_LE(after, before) << spec.name;
    EXPECT_EQ(after, circuit_clock_period(c)) << spec.name;
  }
}

/// turbomap_period's period (the label scan) equals the least period the
/// W/D oracle finds for the same mapped network, and the flow's witness
/// reaches it.
void expect_label_scan_matches_wd(const Circuit& input, const std::string& name) {
  const FlowResult r = run_turbomap_period(input, FlowOptions{});
  ASSERT_EQ(r.status, Status::kOk) << name;
  EXPECT_EQ(r.pipeline_stages, 0) << name;
  const oracle::RetimeResult wd = oracle::min_period_retiming(r.mapped);
  EXPECT_EQ(r.period, wd.period) << name;
  Circuit retimed = r.mapped;
  apply_retiming(retimed, r.retiming);
  EXPECT_EQ(circuit_clock_period(retimed), r.period) << name;
}

/// Small mapped-network-sized circuits for the W/D oracle.
BenchmarkSpec oracle_spec(std::uint64_t seed) {
  BenchmarkSpec spec;
  spec.name = "oracle" + std::to_string(seed);
  spec.seed = 9100 + seed;
  spec.num_pis = 4;
  spec.num_pos = 3;
  spec.num_gates = 60;
  spec.feedback = 0.08;
  spec.locality = 10;
  return spec;
}

TEST(Retiming, LabelScanMatchesWdMinimumOnSuiteCircuits) {
  std::vector<BenchmarkSpec> specs = tiny_suite();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) specs.push_back(oracle_spec(seed));
  for (const BenchmarkSpec& spec : table1_suite()) specs.push_back(spec);
  for (const BenchmarkSpec& spec : specs) {
    expect_label_scan_matches_wd(generate_fsm_circuit(spec), spec.name);
  }
}

// ---- MDR ratio ----

TEST(CycleRatio, AcyclicIsZero) {
  const Circuit c = pipeline_chain(std::vector<int>{1, 0, 1, 0});
  EXPECT_EQ(oracle::circuit_mdr(c).ratio, Rational(0));
  EXPECT_TRUE(oracle::circuit_mdr(c).critical_cycle.empty());
}

TEST(CycleRatio, RingHasExactRationalRatio) {
  EXPECT_EQ(oracle::circuit_mdr(ring_circuit(5, 2)).ratio, Rational(5, 2));
  EXPECT_EQ(oracle::circuit_mdr(ring_circuit(7, 3)).ratio, Rational(7, 3));
  EXPECT_EQ(oracle::circuit_mdr(ring_circuit(4, 4)).ratio, Rational(1));
}

TEST(CycleRatio, CriticalCycleAchievesTheRatio) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[3]);
  const CycleRatioResult r = oracle::circuit_mdr(c);
  ASSERT_FALSE(r.critical_cycle.empty());
  std::int64_t d_sum = 0;
  std::int64_t w_sum = 0;
  for (const EdgeId e : r.critical_cycle) {
    d_sum += c.delay(c.edge(e).to);
    w_sum += c.edge(e).weight;
  }
  EXPECT_EQ(Rational(d_sum, w_sum), r.ratio);
  // Decision procedure agrees on both sides of the ratio.
  EXPECT_FALSE(oracle::has_cycle_above_ratio(c, r.ratio));
  EXPECT_TRUE(oracle::has_cycle_above_ratio(c, r.ratio - Rational(1, 1000)));
}

TEST(CycleRatio, CombinationalLoopThrows) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId g1 = c.declare_gate("g1");
  const NodeId g2 = c.declare_gate("g2");
  // g1 and g2 form a zero-weight cycle; validate() is never called.
  const Circuit::FaninSpec f1[2] = {{a, 0}, {g2, 0}};
  c.finish_gate(g1, tt_and(2), f1);
  const Circuit::FaninSpec f2[1] = {{g1, 0}};
  c.finish_gate(g2, tt_not(), f2);
  c.add_po("$po:o", {g2, 0});
  EXPECT_THROW((void)oracle::circuit_mdr(c), Error);
}

// ---- pipelining ----

Circuit pipelined_copy(const Circuit& c, int stages) {
  Circuit piped = c;
  pipeline_inputs(piped, stages);
  pipeline_outputs(piped, stages);
  return piped;
}

/// `c` pipelined by the result's stages and retimed by its witness, which
/// must keep every PI and PO at lag 0 (apply_retiming rejects an illegal one).
Circuit realize(const Circuit& c, const PipelineResult& p) {
  for (const NodeId v : oracle::circuit_io(c)) EXPECT_EQ(p.retiming[static_cast<std::size_t>(v)], 0);
  Circuit piped = pipelined_copy(c, p.stages);
  apply_retiming(piped, p.retiming);
  return piped;
}

TEST(Pipelining, ReachesTheMdrBoundOnPipelines) {
  // Purely feed-forward circuit: MDR = 0, so pipelining reaches period 1.
  // Four gates need three registers on the path: two stages at each end.
  const Circuit c = pipeline_chain(std::vector<int>{0, 0, 0, 0, 0});
  const PipelineResult p = pipeline_and_retime(c, oracle::circuit_mdr(c).ratio);
  EXPECT_EQ(p.period, 1);
  EXPECT_EQ(p.stages, 2);
  EXPECT_EQ(circuit_clock_period(realize(c, p)), 1);
}

TEST(Pipelining, StagesShiftOutputsByStages) {
  Circuit original = pipeline_chain(std::vector<int>{0, 0, 0});
  Circuit piped = original;
  pipeline_inputs(piped, 2);
  Rng rng(43);
  const auto stimulus = random_stimulus(rng, 1, 64);
  const auto a = simulate_sequence(original, stimulus);
  const auto b = simulate_sequence(piped, stimulus);
  for (std::size_t t = 2; t < b.size(); ++t) EXPECT_EQ(b[t], a[t - 2]);
}

TEST(Pipelining, SuiteCircuitsReachCeilOfMdr) {
  for (const auto& spec : tiny_suite()) {
    const Circuit c = generate_fsm_circuit(spec);
    const Rational mdr = oracle::circuit_mdr(c).ratio;
    const PipelineResult p = pipeline_and_retime(c, mdr);
    EXPECT_EQ(p.period, std::max<std::int64_t>(1, mdr.ceil())) << spec.name;
    EXPECT_EQ(circuit_clock_period(realize(c, p)), p.period) << spec.name;
  }
}

// ---- the label formula against Leiserson–Saxe FEAS ----

/// For every period c from max(1, ceil(MDR)) to the un-retimed clock period:
/// the formula's depth s(c) is feasible under the W/D oracle's FEAS on an
/// explicitly pipelined copy, s(c) - 1 is not, and the witness is legal and
/// meets c.
void expect_formula_matches_feas(const Circuit& c, const std::string& name) {
  const std::int64_t lo = std::max<std::int64_t>(1, oracle::circuit_mdr(c).ratio.ceil());
  const std::int64_t hi = circuit_clock_period(c);
  ASSERT_LE(lo, hi) << name;
  for (std::int64_t period = lo; period <= hi; ++period) {
    const PipelineResult p = pipeline_and_retime(c, Rational(period));
    const std::string at = name + " period " + std::to_string(period);
    ASSERT_EQ(p.period, period) << at;
    EXPECT_TRUE(oracle::feasible_retiming(pipelined_copy(c, p.stages), period).has_value())
        << at << " stages " << p.stages;
    if (p.stages > 0) {
      EXPECT_FALSE(oracle::feasible_retiming(pipelined_copy(c, p.stages - 1), period).has_value())
          << at << " stages " << p.stages - 1;
    }
    EXPECT_LE(circuit_clock_period(realize(c, p)), period) << at;
  }
}

TEST(Pipelining, LabelFormulaMatchesFeasOnPipelinedCopies) {
  // Long register-free and registered chains: depths up to 4 at period 1.
  expect_formula_matches_feas(pipeline_chain(std::vector<int>(10, 0)), "chain9");
  expect_formula_matches_feas(pipeline_chain(std::vector<int>{0, 0, 0, 1, 0, 0, 0, 0, 2, 0}),
                              "registered_chain9");
  for (const auto& spec : tiny_suite()) {
    expect_formula_matches_feas(generate_fsm_circuit(spec), spec.name);
  }
  FlowOptions opt;
  opt.pipeline = false;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const BenchmarkSpec spec = oracle_spec(seed);
    expect_formula_matches_feas(run_turbomap(generate_fsm_circuit(spec), opt).mapped, spec.name);
  }
  std::vector<BenchmarkSpec> table1 = table1_suite();
  std::sort(table1.begin(), table1.end(), [](const BenchmarkSpec& a, const BenchmarkSpec& b) {
    return a.num_gates < b.num_gates;
  });
  for (std::size_t i = 0; i < 6; ++i) {
    expect_formula_matches_feas(run_turbomap(generate_fsm_circuit(table1[i]), opt).mapped,
                                table1[i].name);
  }
}

TEST(Pipelining, PipelinedFlowRunsOneLabelPass) {
  FlowOptions opt;
  const FlowResult r = run_turbomap(generate_fsm_circuit(tiny_suite()[2]), opt);
  ASSERT_GT(r.pipeline_stages, 0);
  const StageMetric* retime = r.stage_metrics.find("pipeline-retime");
  ASSERT_NE(retime, nullptr);
  EXPECT_EQ(retime->counter("retime_configs"), 1);
  EXPECT_GT(retime->counter("retime_label_rounds"), 0);
  for (const auto& [name, value] : retime->counters) {
    for (const char* wd : {"retime_wd_builds", "retime_constraints", "retime_bf_rounds",
                           "retime_conservative"}) {
      EXPECT_NE(name, wd);
    }
  }
}

TEST(Pipelining, LargeNetworkIsExactAndAuditedThroughTheWitness) {
  // Wide I/O keeps the mapped network above 1500 nodes: no size limit
  // applies to the flows or to the audit.
  BenchmarkSpec spec;
  spec.name = "wide_io";
  spec.seed = 4242;
  spec.num_pis = 400;
  spec.num_pos = 800;
  spec.num_gates = 1200;
  spec.max_fanin = 2;
  spec.locality = 8;
  const Circuit c = generate_fsm_circuit(spec);
  FlowOptions opt;
  const FlowResult r = run_turbomap(c, opt);
  ASSERT_GT(r.mapped.num_nodes(), 1500);
  EXPECT_EQ(r.period, std::max<std::int64_t>(1, oracle::circuit_mdr(r.mapped).ratio.ceil()));
  const AuditReport report = audit_flow(c, r, opt, AuditOptions{});
  EXPECT_TRUE(report.passed()) << report.breakdown();
  // The period audit stands on the witness: without one, or with one lag
  // moved off a PO, the claim fails.
  const auto unwitnessed =
      audit_period(r.mapped, r.exact_mdr, r.period, r.pipeline_stages, std::vector<int>{});
  ASSERT_TRUE(unwitnessed.has_value());
  EXPECT_NE(unwitnessed->find("witness"), std::string::npos) << *unwitnessed;
  std::vector<int> moved = r.retiming;
  moved[static_cast<std::size_t>(r.mapped.pos()[0])] += 1;
  EXPECT_TRUE(
      audit_period(r.mapped, r.exact_mdr, r.period, r.pipeline_stages, moved).has_value());

  // The clock-period engine is exact at this size too.
  const FlowResult period = run_turbomap_period(c, opt);
  ASSERT_GT(period.mapped.num_nodes(), 1500);
  const AuditReport period_report = audit_flow(c, period, opt, AuditOptions{});
  EXPECT_TRUE(period_report.passed()) << period_report.breakdown();
}

}  // namespace
}  // namespace turbosyn
