// Property sweeps over the full Table-1 suite (smaller circuits only, to
// keep test time bounded): the cross-flow invariants that the paper's
// comparison rests on, checked per circuit rather than in aggregate.

#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "core/flows.hpp"
#include "oracle.hpp"
#include "sim/simulator.hpp"
#include "verify/equiv.hpp"
#include "workloads/generator.hpp"

namespace turbosyn {
namespace {

class SuiteFlowProperties : public ::testing::TestWithParam<int> {};

TEST_P(SuiteFlowProperties, TurboSynInvariantsHold) {
  static const int picks[] = {0, 1, 12, 13};  // bbara, bbsse, s298, s400
  const BenchmarkSpec spec = table1_suite()[static_cast<std::size_t>(
      picks[static_cast<std::size_t>(GetParam())])];
  const Circuit c = generate_fsm_circuit(spec);
  FlowOptions opt;

  const FlowResult tm = run_turbomap(c, opt);
  const FlowResult ts = run_turbosyn(c, opt);

  // 1. phi ordering: resynthesis never hurts; both within the input bound.
  EXPECT_LE(ts.phi, tm.phi) << spec.name;
  EXPECT_LE(Rational(tm.phi), oracle::circuit_mdr(c).ratio + Rational(1)) << spec.name;

  // 2. The mapped networks honor their reported ratios exactly.
  EXPECT_LE(tm.exact_mdr, Rational(tm.phi)) << spec.name;
  EXPECT_LE(ts.exact_mdr, Rational(ts.phi)) << spec.name;

  // 3. phi-1 is genuinely infeasible for TurboSYN's label computation
  //    (minimality of the binary search answer).
  if (ts.phi > 1) {
    LabelOptions lo = opt.label_options(true);
    EXPECT_FALSE(compute_labels(c, ts.phi - 1, lo).feasible) << spec.name;
  }

  // 4. Pipelining + retiming achieves a period within the ceil(MDR) theory
  //    bound relative to what the mapping allows.
  EXPECT_GE(Rational(ts.period), ts.exact_mdr) << spec.name;

  // 5. Behavior preserved (bounded, from the all-zero state at cycle 0).
  SequentialCheckOptions check;
  check.cycles = 128;
  EXPECT_TRUE(sequentially_equivalent_bounded(c, ts.mapped, check)) << spec.name;
  EXPECT_TRUE(sequentially_equivalent_bounded(c, tm.mapped, check)) << spec.name;

  // 6. Every LUT respects K; every loop in the mapping carries a register.
  EXPECT_TRUE(ts.mapped.is_k_bounded(opt.k)) << spec.name;
  ts.mapped.validate();
}

INSTANTIATE_TEST_SUITE_P(SmallTable1, SuiteFlowProperties, ::testing::Range(0, 4));

TEST(FlowDeterminism, SameInputSameResult) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[2]);
  FlowOptions opt;
  const FlowResult a = run_turbosyn(c, opt);
  const FlowResult b = run_turbosyn(c, opt);
  EXPECT_EQ(a.phi, b.phi);
  EXPECT_EQ(a.luts, b.luts);
  EXPECT_EQ(a.ffs, b.ffs);
  EXPECT_EQ(a.exact_mdr, b.exact_mdr);
}

TEST(FlowOptionsKnobs, EveryConfigurationStaysCorrect) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[4]);
  Rng rng(77);
  const auto stimulus = random_stimulus(rng, c.num_pis(), 64);
  const auto golden = simulate_sequence(c, stimulus);
  for (const bool relax : {false, true}) {
    for (const bool lcc : {false, true}) {
      for (const bool dd : {false, true}) {
        FlowOptions opt;
        opt.label_relaxation = relax;
        opt.low_cost_cuts = lcc;
        opt.dedupe = dd;
        opt.pack = dd;  // vary jointly to halve the sweep
        const FlowResult r = run_turbosyn(c, opt);
        EXPECT_TRUE(r.mapped.is_k_bounded(opt.k));
        EXPECT_LE(r.exact_mdr, Rational(r.phi));
        const auto mapped_out = simulate_sequence(r.mapped, stimulus);
        for (std::size_t t = 16; t < golden.size(); ++t) {
          ASSERT_EQ(golden[t], mapped_out[t])
              << "relax=" << relax << " lcc=" << lcc << " dd=" << dd << " t=" << t;
        }
      }
    }
  }
}

}  // namespace
}  // namespace turbosyn
