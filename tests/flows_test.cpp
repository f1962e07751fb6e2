// End-to-end tests of the three flows on hand-built circuits and the tiny
// synthetic suite. The invariants checked here are the paper's core claims:
//   - the mapped network's exact MDR ratio never exceeds the reported phi;
//   - the mapped (un-retimed) network is cycle-accurate equivalent to the
//     input circuit from the all-zero initial state;
//   - TurboSYN's phi is never worse than TurboMap's, and on the Figure-1
//     circuit it is strictly better (ratio 1 vs 2 at K=3).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <random>
#include <string>

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

// TurboSYN's φ and LUT count on every Table-1 shape at K = 5, one ctest
// entry per shape (about 20 s together in a Release build). The φ column is
// EXPERIMENTS.md's Table-1 "TurboSYN φ" column. Any change to the
// decomposition path (cut extraction, its memo, the Roth–Karp step) or to
// the flow's search schedule must leave every row unchanged.
struct TurboSynPin {
  const char* name;
  int phi;
  int luts;
};

const TurboSynPin kTurboSynTable1Column[] = {
    {"bbara", 3, 28},   {"bbsse", 2, 168},  {"cse", 5, 250},    {"dk16", 4, 163},
    {"keyb", 4, 258},   {"kirkman", 4, 216}, {"planet", 4, 622}, {"pma", 4, 294},
    {"s1", 4, 417},     {"sand", 4, 540},   {"scf", 4, 978},    {"styr", 6, 480},
    {"s298", 4, 87},    {"s400", 3, 102},   {"s526", 4, 171},   {"s953", 4, 441},
};

// ctest names each instance after the printed value: .../PhiAndLutsArePinned/bbara.
void PrintTo(const TurboSynPin& pin, std::ostream* os) { *os << pin.name; }

class TurboSynTable1Column : public ::testing::TestWithParam<TurboSynPin> {};

TEST_P(TurboSynTable1Column, PhiAndLutsArePinned) {
  const TurboSynPin& pin = GetParam();
  const std::vector<BenchmarkSpec> suite = table1_suite();
  ASSERT_EQ(suite.size(), std::size(kTurboSynTable1Column));
  const auto spec = std::find_if(suite.begin(), suite.end(),
                                 [&](const BenchmarkSpec& s) { return s.name == pin.name; });
  ASSERT_NE(spec, suite.end()) << pin.name;
  const FlowResult r = run_turbosyn(generate_fsm_circuit(*spec), FlowOptions{});
  EXPECT_EQ(r.phi, pin.phi);
  EXPECT_EQ(r.luts, pin.luts);
}

INSTANTIATE_TEST_SUITE_P(Table1, TurboSynTable1Column,
                         ::testing::ValuesIn(kTurboSynTable1Column));

// The mapping tail (mapping generation, dedupe, packing, the exact MDR and
// pipeline-retime) pinned bit for bit: an FNV-1a hash of the mapped BLIF
// text (node order, names and functions, encoder LUTs `<name>$e<i>`
// included), the LUT and register counts, the exact MDR, the claimed
// (period, stages) and a hash of the witness retiming. TurboMap runs on the
// 16 Table-1 shapes, FlowSYN-s and TurboSYN on the tiny suite (K = 5).
struct TailPin {
  const char* name;
  std::uint64_t blif_hash;
  int luts;
  std::int64_t ffs;
  std::int64_t mdr_num;
  std::int64_t mdr_den;
  std::int64_t period;
  int stages;
  std::uint64_t retiming_hash;
};

const TailPin kTurboMapTable1Tail[] = {
    {"bbara", 0x1551dc5cd1e10a8dull, 50, 17, 6, 1, 6, 1, 0x7811b764cd7c86abull},
    {"bbsse", 0xc11c758a968f16beull, 98, 22, 5, 1, 5, 1, 0xb21a4777fc13c203ull},
    {"cse", 0xf13b41500915940cull, 179, 38, 10, 1, 10, 1, 0xf4311ca79885891aull},
    {"dk16", 0x725cda6fcad319e8ull, 190, 35, 7, 1, 7, 2, 0x026dd44228089504ull},
    {"keyb", 0x38bbc7431a5987b0ull, 158, 29, 9, 1, 9, 2, 0x2a24719b622557beull},
    {"kirkman", 0x44af3823c378fb99ull, 155, 29, 10, 1, 10, 2, 0xc715c88e01bbd5d5ull},
    {"planet", 0xf4eabc2b24667d7full, 423, 52, 7, 1, 7, 4, 0xf7bcc951c9a2036bull},
    {"pma", 0x6bae2782485e5e93ull, 197, 40, 8, 1, 8, 2, 0x7d5357184846f53full},
    {"s1", 0x19bfba2116ae728cull, 271, 46, 8, 1, 8, 2, 0xb499f7e50ac328deull},
    {"sand", 0xa263f428ad751d89ull, 396, 52, 7, 1, 7, 4, 0x13be09003f345dc1ull},
    {"scf", 0xa7f505060b156bd3ull, 607, 86, 9, 1, 9, 4, 0x4cf32a3ba3a28f36ull},
    {"styr", 0x219ce01442f80699ull, 320, 65, 10, 1, 10, 2, 0x245f16170fa2c9cdull},
    {"s298", 0xca223dbb50953300ull, 72, 27, 6, 1, 6, 1, 0xfabb3e646613ec47ull},
    {"s400", 0x4341f6d943caced8ull, 100, 42, 6, 1, 6, 1, 0xf16a3febb4bc0190ull},
    {"s526", 0x562a92005451cd49ull, 128, 45, 7, 1, 7, 1, 0x20472c71e0e11c75ull},
    {"s953", 0x4af2a49725aad8e2ull, 293, 67, 7, 1, 7, 3, 0xeb5c0d37ed1e8192ull},
};

const TailPin kFlowSynSTinyTail[] = {
    {"tiny1", 0xf3313e56d8f5a64full, 1, 0, 0, 1, 1, 0, 0x2372b1cdc33e7e23ull},
    {"tiny2", 0x1dfae101c78aac9bull, 1, 1, 1, 1, 1, 0, 0xa860cfee3d3ccf6cull},
    {"tiny3", 0x29b34c80e5fa633full, 6, 5, 2, 1, 2, 0, 0x495e751306503c32ull},
    {"tiny4", 0x70379347879c822aull, 20, 11, 3, 1, 3, 0, 0x516bc006137b88ffull},
    {"tiny5", 0x4356e4fbbb136536ull, 19, 10, 2, 1, 2, 0, 0xb248ebff9341fd03ull},
    {"tiny6", 0x4098fddad94b18ddull, 0, 1, 0, 1, 1, 0, 0x3bc7adf8fcd7b8cfull},
};

const TailPin kTurboSynTinyTail[] = {
    {"tiny1", 0xbefb3654b904bbaaull, 4, 3, 1, 1, 1, 1, 0xc25374f525a56627ull},
    {"tiny2", 0xe9928a8cf48210c9ull, 1, 1, 1, 1, 1, 0, 0xd33f1b983f87f6f4ull},
    {"tiny3", 0x669b147c90488e23ull, 8, 7, 2, 1, 2, 0, 0xe684ddcedb7b54efull},
    {"tiny4", 0x03a9b62cf652022dull, 35, 15, 2, 1, 2, 1, 0xa9ab38eaba60d73cull},
    {"tiny5", 0x0887917b0510bcb5ull, 25, 12, 2, 1, 2, 0, 0xa745d04dc01d806full},
    {"tiny6", 0xf36bc323448705f5ull, 5, 5, 2, 1, 2, 0, 0x4cdf320bf67f9e31ull},
};

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char ch : bytes) {
    h ^= ch;
    h *= 1099511628211ull;
  }
  return h;
}

void expect_tail_matches(const TailPin& pin, const FlowResult& r) {
  EXPECT_EQ(fnv1a(write_blif_string(r.mapped)), pin.blif_hash) << pin.name;
  EXPECT_EQ(r.luts, pin.luts) << pin.name;
  EXPECT_EQ(r.ffs, pin.ffs) << pin.name;
  EXPECT_EQ(r.exact_mdr, Rational(pin.mdr_num, pin.mdr_den)) << pin.name;
  EXPECT_EQ(r.period, pin.period) << pin.name;
  EXPECT_EQ(r.pipeline_stages, pin.stages) << pin.name;
  std::string lags;
  for (const int lag : r.retiming) lags += std::to_string(lag) + ',';
  EXPECT_EQ(fnv1a(lags), pin.retiming_hash) << pin.name;
}

BenchmarkSpec spec_named(const std::vector<BenchmarkSpec>& suite, const char* name) {
  const auto it = std::find_if(suite.begin(), suite.end(),
                               [&](const BenchmarkSpec& s) { return s.name == name; });
  EXPECT_NE(it, suite.end()) << name;
  return it == suite.end() ? BenchmarkSpec{} : *it;
}

void PrintTo(const TailPin& pin, std::ostream* os) { *os << pin.name; }

class TurboMapTable1Tail : public ::testing::TestWithParam<TailPin> {};
class FlowSynSTinyTail : public ::testing::TestWithParam<TailPin> {};
class TurboSynTinyTail : public ::testing::TestWithParam<TailPin> {};

TEST_P(TurboMapTable1Tail, MappedNetworkIsPinned) {
  const BenchmarkSpec spec = spec_named(table1_suite(), GetParam().name);
  expect_tail_matches(GetParam(), run_turbomap(generate_fsm_circuit(spec), FlowOptions{}));
}

TEST_P(FlowSynSTinyTail, MappedNetworkIsPinned) {
  const BenchmarkSpec spec = spec_named(tiny_suite(), GetParam().name);
  expect_tail_matches(GetParam(), run_flowsyn_s(generate_fsm_circuit(spec), FlowOptions{}));
}

TEST_P(TurboSynTinyTail, MappedNetworkIsPinned) {
  const BenchmarkSpec spec = spec_named(tiny_suite(), GetParam().name);
  expect_tail_matches(GetParam(), run_turbosyn(generate_fsm_circuit(spec), FlowOptions{}));
}

INSTANTIATE_TEST_SUITE_P(Table1, TurboMapTable1Tail, ::testing::ValuesIn(kTurboMapTable1Tail));
INSTANTIATE_TEST_SUITE_P(Tiny, FlowSynSTinyTail, ::testing::ValuesIn(kFlowSynSTinyTail));
INSTANTIATE_TEST_SUITE_P(Tiny, TurboSynTinyTail, ::testing::ValuesIn(kTurboSynTinyTail));

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
  const Rational& mdr = fs.exact_mdr;
  const Rational fs_bound =
      mdr < Rational(1) ? Rational(1) : Rational(mdr.num() + mdr.den(), mdr.den());  // mdr + 1
  EXPECT_LE(Rational(ts.phi - 1), fs_bound);
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
