#include <gtest/gtest.h>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "core/flows.hpp"
#include "netlist/gates.hpp"
#include "retime/cycle_ratio.hpp"
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

TEST(Retiming, BalancesAPipeline) {
  // All registers piled at the input: retiming should spread them out.
  Circuit c = pipeline_chain(std::vector<int>{3, 0, 0, 0});
  EXPECT_EQ(circuit_clock_period(c), 3);
  EXPECT_EQ(retime_min_period(c), 1);
  EXPECT_EQ(circuit_clock_period(c), 1);
}

TEST(Retiming, PreservesCycleWeights) {
  Circuit c = generate_fsm_circuit(tiny_suite()[1]);
  const Digraph before = c.to_digraph();
  const auto mdr_before = circuit_mdr(c);
  retime_min_period(c);
  // Retiming is a potential transformation: every cycle keeps its register
  // count, so the MDR ratio is invariant.
  EXPECT_EQ(circuit_mdr(c).ratio, mdr_before.ratio);
  EXPECT_EQ(c.num_edges(), before.num_edges());
}

TEST(Retiming, PipelineBehaviorPreservedAfterWarmup) {
  Circuit original = pipeline_chain(std::vector<int>{3, 0, 0, 0});
  Circuit retimed = original;
  retime_min_period(retimed);
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
  const Circuit c = ring_circuit(4, 2);
  const Digraph g = c.to_digraph();
  std::vector<int> delay(static_cast<std::size_t>(c.num_nodes()));
  for (NodeId v = 0; v < c.num_nodes(); ++v) delay[static_cast<std::size_t>(v)] = c.delay(v);
  std::vector<NodeId> pinned(c.pis().begin(), c.pis().end());
  pinned.insert(pinned.end(), c.pos().begin(), c.pos().end());
  EXPECT_FALSE(feasible_retiming(g, delay, 1, pinned).has_value());
  EXPECT_TRUE(feasible_retiming(g, delay, 2, pinned).has_value());
}

TEST(Retiming, MinPeriodNeverExceedsInitialPeriod) {
  for (const auto& spec : tiny_suite()) {
    Circuit c = generate_fsm_circuit(spec);
    const std::int64_t before = circuit_clock_period(c);
    const std::int64_t after = retime_min_period(c);
    EXPECT_LE(after, before) << spec.name;
    EXPECT_EQ(after, circuit_clock_period(c)) << spec.name;
  }
}

// ---- MDR ratio ----

TEST(CycleRatio, AcyclicIsZero) {
  const Circuit c = pipeline_chain(std::vector<int>{1, 0, 1, 0});
  EXPECT_EQ(circuit_mdr(c).ratio, Rational(0));
  EXPECT_TRUE(circuit_mdr(c).critical_cycle.empty());
}

TEST(CycleRatio, RingHasExactRationalRatio) {
  EXPECT_EQ(circuit_mdr(ring_circuit(5, 2)).ratio, Rational(5, 2));
  EXPECT_EQ(circuit_mdr(ring_circuit(7, 3)).ratio, Rational(7, 3));
  EXPECT_EQ(circuit_mdr(ring_circuit(4, 4)).ratio, Rational(1));
}

TEST(CycleRatio, CriticalCycleAchievesTheRatio) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[3]);
  const Digraph g = c.to_digraph();
  std::vector<int> delay(static_cast<std::size_t>(c.num_nodes()));
  for (NodeId v = 0; v < c.num_nodes(); ++v) delay[static_cast<std::size_t>(v)] = c.delay(v);
  const CycleRatioResult r = max_delay_to_register_ratio(g, delay);
  ASSERT_FALSE(r.critical_cycle.empty());
  std::int64_t d_sum = 0;
  std::int64_t w_sum = 0;
  for (const EdgeId e : r.critical_cycle) {
    d_sum += delay[static_cast<std::size_t>(g.edge(e).to)];
    w_sum += g.edge(e).weight;
  }
  EXPECT_EQ(Rational(d_sum, w_sum), r.ratio);
  // Decision procedure agrees on both sides of the ratio.
  EXPECT_FALSE(has_cycle_above_ratio(g, delay, r.ratio));
  EXPECT_TRUE(has_cycle_above_ratio(g, delay, r.ratio - Rational(1, 1000)));
}

TEST(CycleRatio, CombinationalLoopThrows) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId g1 = c.declare_gate("g1");
  const NodeId g2 = c.declare_gate("g2");
  // g1 and g2 form a zero-weight cycle; bypass validate() via to_digraph.
  const Circuit::FaninSpec f1[2] = {{a, 0}, {g2, 0}};
  c.finish_gate(g1, tt_and(2), f1);
  const Circuit::FaninSpec f2[1] = {{g1, 0}};
  c.finish_gate(g2, tt_not(), f2);
  c.add_po("$po:o", {g2, 0});
  EXPECT_THROW((void)circuit_mdr(c), Error);
}

// ---- pipelining ----

TEST(Pipelining, ReachesTheMdrBoundOnPipelines) {
  // Purely feed-forward circuit: MDR = 0, so pipelining reaches period 1.
  Circuit c = pipeline_chain(std::vector<int>{0, 0, 0, 0, 0});
  const PipelineResult p = pipeline_and_retime(c, circuit_mdr(c).ratio);
  EXPECT_EQ(p.period, 1);
  EXPECT_GE(p.stages, 1);
  EXPECT_EQ(circuit_clock_period(c), 1);
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
    Circuit c = generate_fsm_circuit(spec);
    const Rational mdr = circuit_mdr(c).ratio;
    const PipelineResult p = pipeline_and_retime(c, mdr);
    EXPECT_GE(Rational(p.period), mdr) << spec.name;          // theory lower bound
    EXPECT_EQ(circuit_clock_period(c), p.period) << spec.name;  // achieved
  }
}

// ---- shared W/D table ----

std::vector<int> delays_of(const Circuit& c) {
  std::vector<int> delay(static_cast<std::size_t>(c.num_nodes()));
  for (NodeId v = 0; v < c.num_nodes(); ++v) delay[static_cast<std::size_t>(v)] = c.delay(v);
  return delay;
}

std::vector<NodeId> io_of(const Circuit& c) {
  std::vector<NodeId> pinned(c.pis().begin(), c.pis().end());
  pinned.insert(pinned.end(), c.pos().begin(), c.pos().end());
  return pinned;
}

/// One table, solved for every (target, stages), against the one-shot FEAS
/// on an explicitly pipelined copy: same verdict, same lags.
void expect_table_matches_pipelined_copy(const Circuit& c, const std::string& name) {
  const std::vector<int> delay = delays_of(c);
  const std::vector<NodeId> pinned = io_of(c);
  RetimingTable table(c.to_digraph(), delay, pinned, c.pis(), c.pos(), 64);
  ASSERT_TRUE(table.exact()) << name;
  const std::int64_t lo = std::max<std::int64_t>(1, circuit_mdr(c).ratio.ceil());
  const std::int64_t hi = circuit_clock_period(c);
  ASSERT_LE(lo, hi) << name;
  for (const int stages : {0, 1, 2, 4, 64}) {
    Circuit piped = c;
    pipeline_inputs(piped, stages);
    pipeline_outputs(piped, stages);
    const Digraph g = piped.to_digraph();
    for (std::int64_t target = lo; target <= hi; ++target) {
      const auto shared = table.feasible(target, stages);
      const auto one_shot = feasible_retiming(g, delay, target, pinned);
      ASSERT_EQ(shared.has_value(), one_shot.has_value())
          << name << " target " << target << " stages " << stages;
      if (shared.has_value()) {
        EXPECT_EQ(*shared, *one_shot) << name << " target " << target << " stages " << stages;
      }
    }
  }
  EXPECT_EQ(table.work().wd_builds, 1) << name;
}

TEST(RetimingTable, MatchesOneShotOnPipelinedCopies) {
  for (const auto& spec : tiny_suite()) {
    expect_table_matches_pipelined_copy(generate_fsm_circuit(spec), spec.name);
  }
  FlowOptions opt;
  opt.pipeline = false;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    BenchmarkSpec spec;
    spec.name = "oracle" + std::to_string(seed);
    spec.seed = 9100 + seed;
    spec.num_pis = 4;
    spec.num_pos = 3;
    spec.num_gates = 60;
    spec.feedback = 0.08;
    spec.locality = 10;
    const FlowResult r = run_turbomap(generate_fsm_circuit(spec), opt);
    expect_table_matches_pipelined_copy(r.mapped, spec.name);
  }
}

TEST(RetimingTable, PipelinedFlowBuildsTheTableOnce) {
  FlowOptions opt;
  const FlowResult r = run_turbomap(generate_fsm_circuit(tiny_suite()[2]), opt);
  ASSERT_GT(r.pipeline_stages, 0);
  const StageMetric* retime = r.stage_metrics.find("pipeline-retime");
  ASSERT_NE(retime, nullptr);
  EXPECT_GT(retime->counter("retime_configs"), 0);
  EXPECT_EQ(retime->counter("retime_wd_builds"), 1);
  EXPECT_GT(retime->counter("retime_constraints"), 0);
  EXPECT_GT(retime->counter("retime_bf_rounds"), 0);
  EXPECT_EQ(retime->counter("retime_conservative"), 0);
}

TEST(RetimingTable, ConservativeAboveTheExactLimitIsReported) {
  // Wide I/O keeps the mapped network above the 1500-node exact limit.
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
  const StageMetric* retime = r.stage_metrics.find("pipeline-retime");
  ASSERT_NE(retime, nullptr);
  EXPECT_EQ(retime->counter("retime_conservative"), 1);
  EXPECT_EQ(retime->counter("retime_wd_builds"), 0);
  const AuditReport report = audit_flow(c, r, opt, AuditOptions{});
  EXPECT_TRUE(report.passed()) << report.breakdown();
}

}  // namespace
}  // namespace turbosyn
