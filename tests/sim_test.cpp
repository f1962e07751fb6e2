#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "base/check.hpp"
#include "netlist/blif.hpp"
#include "netlist/gates.hpp"
#include "sim/cone.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"

namespace turbosyn {
namespace {

TEST(Simulator, CombinationalGateEvaluation) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId b = c.add_pi("b");
  const Circuit::FaninSpec f[2] = {{a, 0}, {b, 0}};
  const NodeId g = c.add_gate("g", tt_xor(2), f);
  c.add_po("$po:o", {g, 0});
  Simulator sim(c);
  EXPECT_EQ(sim.step({false, false}), std::vector<bool>{false});
  EXPECT_EQ(sim.step({true, false}), std::vector<bool>{true});
  EXPECT_EQ(sim.step({true, true}), std::vector<bool>{false});
}

TEST(Simulator, RegisterDelaysByWeight) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const Circuit::FaninSpec f[1] = {{a, 2}};
  const NodeId g = c.add_gate("g", tt_buf(), f);
  c.add_po("$po:o", {g, 0});
  Simulator sim(c);
  EXPECT_FALSE(sim.step({true})[0]);   // t=0: sees a(-2) = 0
  EXPECT_FALSE(sim.step({false})[0]);  // t=1: sees a(-1) = 0
  EXPECT_TRUE(sim.step({false})[0]);   // t=2: sees a(0) = 1
  EXPECT_FALSE(sim.step({false})[0]);  // t=3: sees a(1) = 0
}

TEST(Simulator, CounterCountsWithEnable) {
  const Circuit c = read_blif_string(counter3_blif());
  Simulator sim(c);
  int value = 0;
  for (int t = 0; t < 20; ++t) {
    const bool en = (t % 3) != 0;
    const auto out = sim.step({en});
    // The outputs are the register values *before* this cycle's increment.
    EXPECT_EQ(out[0], (value & 1) != 0) << t;
    EXPECT_EQ(out[1], (value & 2) != 0) << t;
    EXPECT_EQ(out[2], (value & 4) != 0) << t;
    if (en) value = (value + 1) & 7;
  }
}

TEST(Simulator, PatternDetectorFires) {
  const Circuit c = read_blif_string(pattern_fsm_blif());
  Simulator sim(c);
  const std::string input = "0101101111011";
  std::string z;
  for (const char bit : input) z.push_back(sim.step({bit == '1'})[0] ? '1' : '0');
  // Mealy 1011 detector with one-cycle state delay: expected firing positions
  // computed by hand over the stream (overlaps allowed).
  std::string expected;
  std::string window;
  for (const char bit : input) {
    window.push_back(bit);
    const bool hit = window.size() >= 4 && window.substr(window.size() - 4) == "1011";
    expected.push_back(hit ? '1' : '0');
  }
  EXPECT_EQ(z, expected);
}

TEST(Simulator, ResetClearsState) {
  const Circuit c = read_blif_string(counter3_blif());
  Simulator sim(c);
  sim.step({true});
  sim.step({true});
  sim.reset();
  EXPECT_EQ(sim.step({true}), (std::vector<bool>{false, false, false}));
}

TEST(Simulator, RejectsWrongInputWidth) {
  const Circuit c = read_blif_string(counter3_blif());
  Simulator sim(c);
  EXPECT_THROW((void)sim.step({true, false}), Error);
}

/// 64 distinct stimuli in one pass give, lane by lane, exactly what each
/// stimulus gives when it runs alone in lane 0.
void expect_lanes_independent(const Circuit& c, std::uint64_t seed, const std::string& name) {
  constexpr int kCycles = 48;
  Rng rng(seed);
  const auto stimulus = random_lane_stimulus(rng, c.num_pis(), kCycles);
  Simulator sim(c);
  std::vector<std::vector<std::uint64_t>> lanes_out;
  lanes_out.reserve(stimulus.size());
  for (const auto& in : stimulus) {
    const std::span<const std::uint64_t> out = sim.step_lanes(in);
    lanes_out.emplace_back(out.begin(), out.end());
  }
  for (int lane = 0; lane < Simulator::kLanes; ++lane) {
    std::vector<std::vector<bool>> alone_in(stimulus.size());
    for (std::size_t t = 0; t < stimulus.size(); ++t) {
      for (const std::uint64_t word : stimulus[t]) alone_in[t].push_back(((word >> lane) & 1) != 0);
    }
    const auto alone_out = simulate_sequence(c, alone_in);
    for (std::size_t t = 0; t < stimulus.size(); ++t) {
      for (std::size_t o = 0; o < alone_out[t].size(); ++o) {
        ASSERT_EQ(alone_out[t][o], ((lanes_out[t][o] >> lane) & 1) != 0)
            << name << " lane " << lane << " cycle " << t << " PO " << o;
      }
    }
  }
}

TEST(Simulator, LanesMatchRunsAloneInLaneZero) {
  std::vector<BenchmarkSpec> specs = tiny_suite();
  const std::vector<BenchmarkSpec> table1 = table1_suite();
  specs.insert(specs.end(), table1.begin(), table1.begin() + 3);
  for (const BenchmarkSpec& spec : specs) {
    expect_lanes_independent(generate_fsm_circuit(spec), spec.seed, spec.name);
  }
}

// ---- cone_truth_table ----

TEST(Cone, ExtractsComposedFunction) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId b = c.add_pi("b");
  const NodeId d = c.add_pi("d");
  const Circuit::FaninSpec f1[2] = {{a, 0}, {b, 0}};
  const NodeId g1 = c.add_gate("g1", tt_and(2), f1);
  const Circuit::FaninSpec f2[2] = {{g1, 0}, {d, 0}};
  const NodeId g2 = c.add_gate("g2", tt_xor(2), f2);
  c.add_po("$po:o", {g2, 0});

  const NodeId leaves[3] = {a, b, d};
  const TruthTable t = cone_truth_table(c, g2, leaves);
  EXPECT_EQ(t, (TruthTable::var(3, 0) & TruthTable::var(3, 1)) ^ TruthTable::var(3, 2));
}

TEST(Cone, LeafCutsOffTraversal) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const Circuit::FaninSpec f1[1] = {{a, 0}};
  const NodeId g1 = c.add_gate("g1", tt_not(), f1);
  const Circuit::FaninSpec f2[1] = {{g1, 0}};
  const NodeId g2 = c.add_gate("g2", tt_not(), f2);
  c.add_po("$po:o", {g2, 0});
  // With g1 as the leaf, g2 is just an inverter of it.
  const NodeId leaves[1] = {g1};
  EXPECT_EQ(cone_truth_table(c, g2, leaves), tt_not());
}

TEST(Cone, RegisteredEdgeInsideConeRejected) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const Circuit::FaninSpec f1[1] = {{a, 1}};
  const NodeId g1 = c.add_gate("g1", tt_not(), f1);
  c.add_po("$po:o", {g1, 0});
  const NodeId leaves[1] = {a};
  EXPECT_THROW((void)cone_truth_table(c, g1, leaves), Error);
}

TEST(Cone, EscapingLeafSetRejected) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId b = c.add_pi("b");
  const Circuit::FaninSpec f1[2] = {{a, 0}, {b, 0}};
  const NodeId g1 = c.add_gate("g1", tt_or(2), f1);
  c.add_po("$po:o", {g1, 0});
  const NodeId leaves[1] = {a};  // b unreachable as a leaf
  EXPECT_THROW((void)cone_truth_table(c, g1, leaves), Error);
}

}  // namespace
}  // namespace turbosyn
