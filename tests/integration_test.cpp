// Cross-module integration: BLIF files on disk -> gate decomposition ->
// flows -> verification -> BLIF out, on the hand-written sample circuits
// (counter, pattern detector, traffic light, Gray counter, LFSR).

#include <cstdio>
#include <fstream>
#include <set>
#include <gtest/gtest.h>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "core/flows.hpp"
#include "decomp/gate_decomp.hpp"
#include "mapping/lut_network.hpp"
#include "netlist/blif.hpp"
#include "oracle.hpp"
#include "retime/howard.hpp"
#include "sim/simulator.hpp"
#include "verify/equiv.hpp"
#include "workloads/samples.hpp"

namespace turbosyn {
namespace {

std::vector<std::string> sample_blifs() {
  return {counter3_blif(), pattern_fsm_blif(), traffic_light_blif(), gray_counter_blif()};
}

TEST(Integration, AllSamplesParseValidateAndSimulate) {
  for (const std::string& text : sample_blifs()) {
    const Circuit c = read_blif_string(text);
    c.validate();
    Rng rng(5);
    const auto stimulus = random_stimulus(rng, c.num_pis(), 32);
    EXPECT_EQ(simulate_sequence(c, stimulus).size(), 32u);
  }
}

TEST(Integration, GrayCounterOutputsAreGray) {
  const Circuit c = read_blif_string(gray_counter_blif());
  Simulator sim(c);
  std::vector<int> codes;
  for (int t = 0; t < 18; ++t) {
    const auto out = sim.step({true});
    int code = 0;
    for (int i = 0; i < 4; ++i) {
      if (out[static_cast<std::size_t>(i)]) code |= 1 << i;
    }
    codes.push_back(code);
  }
  // Consecutive Gray codes differ in exactly one bit; all 16 values appear.
  for (std::size_t t = 1; t < codes.size(); ++t) {
    EXPECT_EQ(__builtin_popcount(static_cast<unsigned>(codes[t] ^ codes[t - 1])), 1) << t;
  }
  std::set<int> distinct(codes.begin(), codes.end());
  EXPECT_EQ(distinct.size(), 16u);
}

TEST(Integration, LfsrHasFullPeriodStructure) {
  // Taps {1, 2} over 3 bits is not what we check — we check the model:
  // gate count, FF count and that the state evolves (non-constant output).
  const Circuit c = lfsr_circuit(5, std::vector<int>{2, 3});
  EXPECT_EQ(c.num_gates(), 5);
  EXPECT_EQ(oracle::circuit_mdr(c).ratio, Rational(1));  // every loop edge registered
  Simulator sim(c);
  std::vector<bool> outs;
  std::vector<bool> inputs = {true, false, false, false, false, false, false, false};
  for (const bool in : inputs) outs.push_back(sim.step({in})[0]);
  bool any_one = false;
  for (const bool b : outs) any_one = any_one || b;
  EXPECT_TRUE(any_one);  // the injected 1 reaches the output
}

TEST(Integration, BlifFileRoundTripOnDisk) {
  const std::string path = testing::TempDir() + "/ts_roundtrip.blif";
  const Circuit original = read_blif_string(traffic_light_blif());
  write_blif_file(original, path, "traffic");
  const Circuit reread = read_blif_file(path);
  Rng rng(17);
  const auto stimulus = random_stimulus(rng, original.num_pis(), 64);
  EXPECT_EQ(simulate_sequence(original, stimulus), simulate_sequence(reread, stimulus));
  std::remove(path.c_str());
  EXPECT_THROW((void)read_blif_file(path), Error);
}

class SampleFlowIntegration : public ::testing::TestWithParam<int> {};

TEST_P(SampleFlowIntegration, TurboSynOnSamplesEndToEnd) {
  const Circuit raw = read_blif_string(sample_blifs()[static_cast<std::size_t>(GetParam())]);
  const int k = 4;
  const Circuit c = raw.is_k_bounded(k) ? raw : gate_decompose(raw, k);
  FlowOptions opt;
  opt.k = k;
  const FlowResult r = run_turbosyn(c, opt);
  EXPECT_GE(r.phi, 1);
  EXPECT_LE(r.exact_mdr, Rational(r.phi));
  EXPECT_TRUE(r.mapped.is_k_bounded(k));
  EXPECT_TRUE(sequentially_equivalent_bounded(c, r.mapped));
  // Howard and Bellman–Ford agree on the mapped network too.
  EXPECT_EQ(circuit_mdr_howard(r.mapped).ratio, oracle::circuit_mdr(r.mapped).ratio);
}

INSTANTIATE_TEST_SUITE_P(Samples, SampleFlowIntegration, ::testing::Range(0, 4));

TEST(Integration, DedupeAfterMappingNeverBreaksEquivalence) {
  const Circuit c = read_blif_string(gray_counter_blif());
  FlowOptions opt;
  opt.k = 5;
  opt.dedupe = false;  // get the raw mapping, dedupe explicitly
  const FlowResult r = run_turbosyn(c, opt);
  LutNetwork net = LutNetwork::from_circuit(r.mapped);
  dedupe_luts(net);
  const Circuit deduped = net.to_circuit();
  EXPECT_LE(deduped.num_gates(), r.mapped.num_gates());
  Rng rng(23);
  const auto stimulus = random_stimulus(rng, c.num_pis(), 64);
  EXPECT_EQ(simulate_sequence(r.mapped, stimulus), simulate_sequence(deduped, stimulus));
}

TEST(Integration, LowCostCutsDoNotChangePhi) {
  const Circuit c = read_blif_string(pattern_fsm_blif());
  FlowOptions on;
  on.k = 4;
  FlowOptions off = on;
  off.low_cost_cuts = false;
  const FlowResult a = run_turbosyn(c, on);
  const FlowResult b = run_turbosyn(c, off);
  EXPECT_EQ(a.phi, b.phi);  // sharing-aware cuts are an area choice only
}

}  // namespace
}  // namespace turbosyn
