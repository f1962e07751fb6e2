// End-to-end tests of the three flows on hand-built circuits and the tiny
// synthetic suite. The invariants checked here are the paper's core claims:
//   - the mapped network's exact MDR ratio never exceeds the reported phi;
//   - the mapped (un-retimed) network is cycle-accurate equivalent to the
//     input circuit from the all-zero initial state;
//   - TurboSYN's phi is never worse than TurboMap's, and on the Figure-1
//     circuit it is strictly better (ratio 1 vs 2 at K=3).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "base/rng.hpp"
#include "core/flows.hpp"
#include "netlist/blif.hpp"
#include "oracle.hpp"
#include "retime/retiming.hpp"
#include "sim/simulator.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"

namespace turbosyn {
namespace {

// Sequential mapping absorbs registers into LUTs, but zero-state-safe cut
// selection (see expanded.hpp) guarantees the recomputed pre-history matches
// the registers' power-up zeros, so the un-retimed mapped network matches
// the original from cycle 0 — no warm-up transient.
void expect_equivalent(const Circuit& a, const Circuit& b, int cycles, std::uint64_t seed,
                       int warmup = 0) {
  ASSERT_EQ(a.num_pis(), b.num_pis());
  ASSERT_EQ(a.num_pos(), b.num_pos());
  Rng rng(seed);
  const auto stimulus = random_stimulus(rng, a.num_pis(), cycles);
  const auto out_a = simulate_sequence(a, stimulus);
  const auto out_b = simulate_sequence(b, stimulus);
  for (int t = warmup; t < cycles; ++t) {
    ASSERT_EQ(out_a[static_cast<std::size_t>(t)], out_b[static_cast<std::size_t>(t)])
        << "outputs diverge at cycle " << t;
  }
}

TEST(Flows, Figure1TurboMapNeedsRatio2) {
  const Circuit c = figure1_circuit();
  FlowOptions opt;
  opt.k = 3;
  const FlowResult r = run_turbomap(c, opt);
  EXPECT_EQ(r.phi, 2);
  EXPECT_LE(r.exact_mdr, Rational(2));
  expect_equivalent(c, r.mapped, 64, 11);
}

TEST(Flows, Figure1TurboSynReachesRatio1) {
  const Circuit c = figure1_circuit();
  FlowOptions opt;
  opt.k = 3;
  const FlowResult r = run_turbosyn(c, opt);
  EXPECT_EQ(r.phi, 1);
  EXPECT_LE(r.exact_mdr, Rational(1));
  EXPECT_LE(r.period, 1);
  expect_equivalent(c, r.mapped, 64, 12);
}

TEST(Flows, RingCollapsesUnderWideLuts) {
  // 4 unit-delay XOR stages, 2 registers: input MDR = 2. At K=5 TurboMap can
  // cover two stages per LUT, reaching ratio 1.
  const Circuit c = ring_circuit(4, 2);
  EXPECT_EQ(oracle::circuit_mdr(c).ratio, Rational(2));
  FlowOptions opt;
  opt.k = 5;
  const FlowResult r = run_turbomap(c, opt);
  EXPECT_EQ(r.phi, 1);
  expect_equivalent(c, r.mapped, 64, 13);
}

TEST(Flows, FlowSynSBaselineIsEquivalentAndMeasured) {
  const Circuit c = figure1_circuit();
  FlowOptions opt;
  opt.k = 3;
  const FlowResult r = run_flowsyn_s(c, opt);
  EXPECT_GE(r.phi, 1);
  EXPECT_LE(Rational(r.phi - 1), r.exact_mdr);  // phi = ceil(mdr) (or 1)
  expect_equivalent(c, r.mapped, 64, 14);
}

// FlowSYN-s (cone_cut's FlowMap cuts on the retimed-combinational network)
// has no other regression guard: pin its phi and LUT count on the 16 Table-1
// shapes at K = 5. The phi column is EXPERIMENTS.md's Table-1 "FS-s" column.
TEST(Flows, FlowSynSTable1ColumnIsPinned) {
  struct Pin {
    const char* name;
    int phi;
    int luts;
  };
  const Pin pins[] = {
      {"bbara", 2, 22},   {"bbsse", 4, 97},   {"cse", 8, 266},  {"dk16", 5, 160},
      {"keyb", 11, 298},  {"kirkman", 7, 215}, {"planet", 7, 746}, {"pma", 8, 314},
      {"s1", 7, 444},     {"sand", 7, 576},   {"scf", 7, 974},  {"styr", 10, 609},
      {"s298", 4, 101},   {"s400", 5, 78},    {"s526", 5, 174}, {"s953", 8, 464},
  };
  const std::vector<BenchmarkSpec> suite = table1_suite();
  ASSERT_EQ(suite.size(), std::size(pins));
  for (std::size_t i = 0; i < suite.size(); ++i) {
    ASSERT_EQ(suite[i].name, pins[i].name);
    const FlowResult r = run_flowsyn_s(generate_fsm_circuit(suite[i]), FlowOptions{});
    EXPECT_EQ(r.phi, pins[i].phi) << pins[i].name;
    EXPECT_EQ(r.luts, pins[i].luts) << pins[i].name;
  }
}

// TurboSYN's φ and LUT count on the three fastest Table-1 shapes (about
// 1.5 s together in a Release build). Any change to the decomposition path
// (cut extraction, its memo, the Roth–Karp step) must leave them unchanged.
TEST(Flows, TurboSynTable1ShapesArePinned) {
  struct Pin {
    const char* name;
    int phi;
    int luts;
  };
  const Pin pins[] = {{"bbara", 3, 28}, {"bbsse", 2, 168}, {"kirkman", 4, 216}};
  const std::vector<BenchmarkSpec> suite = table1_suite();
  for (const Pin& pin : pins) {
    const auto spec = std::find_if(suite.begin(), suite.end(),
                                   [&](const BenchmarkSpec& s) { return s.name == pin.name; });
    ASSERT_NE(spec, suite.end()) << pin.name;
    const FlowResult r = run_turbosyn(generate_fsm_circuit(*spec), FlowOptions{});
    EXPECT_EQ(r.phi, pin.phi) << pin.name;
    EXPECT_EQ(r.luts, pin.luts) << pin.name;
  }
}

// The φ search hands its engine's decomposition memo to mapping generation.
// Mapgen realizes each gate at its converged label, where the search's last
// sweep already ran the same cut tests and resynthesis attempts, so over
// these circuits the mapgen stages attempt decompositions yet extract no
// function of their own.
TEST(Flows, TurboSynMapgenExtractsEachGateCutOnce) {
  std::vector<BenchmarkSpec> specs = tiny_suite();
  for (const BenchmarkSpec& spec : table1_suite()) {
    if (spec.num_gates <= 250) specs.push_back(spec);
  }
  std::int64_t attempts = 0;
  for (const BenchmarkSpec& spec : specs) {
    const FlowResult r = run_turbosyn(generate_fsm_circuit(spec), FlowOptions{});
    for (const StageMetric& stage : r.stage_metrics.stages) {
      if (stage.name != "mapgen") continue;
      EXPECT_EQ(stage.counter("cut_functions"), 0) << spec.name;
      attempts += stage.counter("decomp_attempts");
    }
  }
  EXPECT_GT(attempts, 0);
}

class TinySuiteFlows : public ::testing::TestWithParam<int> {};

TEST_P(TinySuiteFlows, AllThreeFlowsProduceValidEquivalentMappings) {
  const BenchmarkSpec spec = tiny_suite()[static_cast<std::size_t>(GetParam())];
  const Circuit c = generate_fsm_circuit(spec);
  FlowOptions opt;
  opt.k = 5;

  const FlowResult tm = run_turbomap(c, opt);
  EXPECT_LE(tm.exact_mdr, Rational(tm.phi)) << spec.name;
  EXPECT_TRUE(tm.mapped.is_k_bounded(opt.k));
  expect_equivalent(c, tm.mapped, 48, spec.seed);

  const FlowResult ts = run_turbosyn(c, opt);
  EXPECT_LE(ts.exact_mdr, Rational(ts.phi)) << spec.name;
  EXPECT_LE(ts.phi, tm.phi) << spec.name;  // decomposition never hurts phi
  EXPECT_TRUE(ts.mapped.is_k_bounded(opt.k));
  expect_equivalent(c, ts.mapped, 48, spec.seed + 1);

  const FlowResult fs = run_flowsyn_s(c, opt);
  EXPECT_TRUE(fs.mapped.is_k_bounded(opt.k));
  expect_equivalent(c, fs.mapped, 48, spec.seed + 2);
  // TurboSYN should stay within one step of the FF-cutting baseline on the
  // ratio. The extra +1 is the price of zero-state safety: a LUT may not
  // recompute a register-crossed gate whose function is 1 on all-zero inputs
  // (see expanded.hpp), so a loop the baseline sweeps away (or that an
  // unrestricted crossing cut would collapse) can cost one extra LUT level.
  const Rational fs_bound = fs.exact_mdr < Rational(1) ? Rational(1) : fs.exact_mdr + Rational(1);
  EXPECT_LE(Rational(ts.phi), fs_bound + Rational(1));
}

INSTANTIATE_TEST_SUITE_P(AllTiny, TinySuiteFlows, ::testing::Range(0, 6));

TEST(Flows, ZeroStateSafetyKeepsNonResynchronizingLoopsExact) {
  // Regression for a miscompilation found by the flow fuzzer (seed 10): a
  // cut crossed a register through a gate whose function is 1 on all-zero
  // inputs, so the LUT booted into a state the original circuit never
  // visits, and on parity-style loops the outputs disagreed at EVERY cycle,
  // past any warmup. Zero-state-safe cuts keep such gates on the cut (read
  // through real registers), making the mapping exact from cycle 0.
  std::mt19937_64 rng(10 * 0x9e3779b97f4a7c15ull + 1);
  BenchmarkSpec spec;
  spec.name = "fuzz10";
  spec.seed = 10;
  spec.num_pis = 2 + static_cast<int>(rng() % 4);
  spec.num_pos = 2 + static_cast<int>(rng() % 4);
  spec.num_gates = 10 + static_cast<int>(rng() % 22);
  spec.feedback = 0.05 + 0.25 * (static_cast<double>(rng() % 1000) / 1000.0);
  spec.max_fanin = 2 + static_cast<int>(rng() % 3);
  spec.locality = 6 + static_cast<int>(rng() % 13);
  spec.exotic_gate_ratio = 0.35 * (static_cast<double>(rng() % 1000) / 1000.0);
  const Circuit c = generate_fsm_circuit(spec);
  FlowOptions opt;
  opt.k = 4;
  const FlowResult tm = run_turbomap(c, opt);
  expect_equivalent(c, tm.mapped, 256, 10, /*warmup=*/0);
  const FlowResult ts = run_turbosyn(c, opt);
  expect_equivalent(c, ts.mapped, 256, 11, /*warmup=*/0);
}

TEST(Flows, TurboMapPeriodModeMatchesRetimingBound) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[0]);
  FlowOptions opt;
  opt.k = 5;
  const FlowResult r = run_turbomap_period(c, opt);
  // `mapped` stays un-retimed; its witness retiming, with no pipelining,
  // reaches the claimed period. The label-theoretic optimum never exceeds
  // that period, which in turn never exceeds the unmapped circuit's period.
  EXPECT_EQ(r.pipeline_stages, 0);
  Circuit retimed = r.mapped;
  apply_retiming(retimed, r.retiming);
  EXPECT_EQ(circuit_clock_period(retimed), r.period);
  EXPECT_LE(r.phi, r.period);
  EXPECT_LE(r.period, circuit_clock_period(c));
}

TEST(Flows, PldOffGivesSameAnswerAsPldOn) {
  for (int i = 0; i < 3; ++i) {
    const Circuit c = generate_fsm_circuit(tiny_suite()[static_cast<std::size_t>(i)]);
    FlowOptions on;
    on.k = 4;
    FlowOptions off = on;
    off.use_pld = false;
    const FlowResult a = run_turbomap(c, on);
    const FlowResult b = run_turbomap(c, off);
    EXPECT_EQ(a.phi, b.phi);
    // PLD must never need more sweeps than the n^2 criterion.
    EXPECT_LE(a.stats.sweeps, b.stats.sweeps);
  }
}

}  // namespace
}  // namespace turbosyn
