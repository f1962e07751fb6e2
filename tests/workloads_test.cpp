#include <gtest/gtest.h>

#include <sstream>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "mapping/lut_network.hpp"
#include "netlist/blif.hpp"
#include "netlist/gates.hpp"
#include "sim/simulator.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"
#include "workloads/table.hpp"

namespace turbosyn {
namespace {

/// dedupe_luts on the LUT list of `c`, built back into a Circuit; `rounds`
/// (optional) receives dedupe_luts' round count.
Circuit dedupe(const Circuit& c, int* rounds = nullptr) {
  LutNetwork net = LutNetwork::from_circuit(c);
  const int n = dedupe_luts(net);
  if (rounds != nullptr) *rounds = n;
  return net.to_circuit();
}

// ---- generator ----

TEST(Generator, DeterministicForSameSpec) {
  const BenchmarkSpec spec = table1_suite()[3];
  const Circuit a = generate_fsm_circuit(spec);
  const Circuit b = generate_fsm_circuit(spec);
  EXPECT_EQ(write_blif_string(a), write_blif_string(b));
}

TEST(Generator, DifferentSeedsDiffer) {
  BenchmarkSpec spec = tiny_suite()[0];
  const Circuit a = generate_fsm_circuit(spec);
  spec.seed += 1;
  const Circuit b = generate_fsm_circuit(spec);
  EXPECT_NE(write_blif_string(a), write_blif_string(b));
}

TEST(Generator, MeetsStructuralContract) {
  for (const auto& spec : table1_suite()) {
    const Circuit c = generate_fsm_circuit(spec);
    c.validate();
    const CircuitStats st = compute_stats(c);
    EXPECT_EQ(st.gates, spec.num_gates) << spec.name;
    EXPECT_EQ(st.pis, spec.num_pis) << spec.name;
    EXPECT_EQ(st.pos, spec.num_pos) << spec.name;
    EXPECT_LE(st.max_fanin, spec.max_fanin) << spec.name;
    EXPECT_GE(st.ffs, 1) << spec.name;               // sequential
    EXPECT_GE(st.sccs_with_cycle, 1) << spec.name;   // has loops
  }
}

TEST(Generator, SuiteSizesMatchTheBenchmarkRegime) {
  const auto suite = table1_suite();
  EXPECT_EQ(suite.size(), 16u);  // 12 MCNC + 4 ISCAS'89 stand-ins
  for (const auto& spec : suite) {
    EXPECT_GE(spec.num_gates, 80) << spec.name;
    EXPECT_LE(spec.num_gates, 800) << spec.name;
  }
}

TEST(Generator, RejectsDegenerateSpecs) {
  BenchmarkSpec spec;
  spec.num_pis = 0;
  EXPECT_THROW((void)generate_fsm_circuit(spec), Error);
}

// ---- samples ----

TEST(Samples, Figure1HasTheDocumentedShape) {
  const Circuit c = figure1_circuit();
  EXPECT_EQ(c.num_pis(), 4);
  EXPECT_EQ(c.num_gates(), 2);
  EXPECT_EQ(c.num_ffs(), 1);
  EXPECT_EQ(compute_stats(c).sccs_with_cycle, 1);
}

TEST(Samples, RingSpreadsRegistersEvenly) {
  for (const auto& [stages, regs] : {std::pair{6, 2}, {9, 3}, {5, 5}}) {
    const Circuit c = ring_circuit(stages, regs);
    EXPECT_EQ(c.num_gates(), stages);
    EXPECT_EQ(c.num_ffs(), regs);
  }
}

// ---- dedupe ----

TEST(Dedupe, MergesStructuralDuplicates) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId b = c.add_pi("b");
  const Circuit::FaninSpec f[2] = {{a, 0}, {b, 0}};
  const NodeId g1 = c.add_gate("g1", tt_and(2), f);
  const NodeId g2 = c.add_gate("g2", tt_and(2), f);  // duplicate of g1
  const Circuit::FaninSpec fr[2] = {{g1, 0}, {g2, 0}};
  const NodeId r = c.add_gate("r", tt_xor(2), fr);
  c.add_po("$po:o", {r, 0});
  const Circuit d = dedupe(c);
  EXPECT_EQ(c.num_gates(), 3);
  EXPECT_EQ(d.num_gates(), 2);
  // x ^ x == 0 semantics preserved (both XOR inputs now the same signal).
  Rng rng(3);
  const auto stimulus = random_stimulus(rng, 2, 16);
  EXPECT_EQ(simulate_sequence(c, stimulus), simulate_sequence(d, stimulus));
}

TEST(Dedupe, CascadesThroughLevels) {
  // Two identical two-level trees collapse into one.
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId b = c.add_pi("b");
  const Circuit::FaninSpec f[2] = {{a, 0}, {b, 1}};
  const NodeId u1 = c.add_gate("u1", tt_or(2), f);
  const NodeId u2 = c.add_gate("u2", tt_or(2), f);
  const Circuit::FaninSpec f1[2] = {{u1, 0}, {a, 0}};
  const Circuit::FaninSpec f2[2] = {{u2, 0}, {a, 0}};
  const NodeId v1 = c.add_gate("v1", tt_and(2), f1);
  const NodeId v2 = c.add_gate("v2", tt_and(2), f2);
  c.add_po("$po:o1", {v1, 0});
  c.add_po("$po:o2", {v2, 0});
  int rounds = 0;
  const Circuit d = dedupe(c, &rounds);
  EXPECT_EQ(d.num_gates(), 2);
  EXPECT_GE(rounds, 2);
}

TEST(Dedupe, DistinguishesWeights) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const Circuit::FaninSpec f0[1] = {{a, 0}};
  const Circuit::FaninSpec f1[1] = {{a, 1}};
  const NodeId g1 = c.add_gate("g1", tt_not(), f0);
  const NodeId g2 = c.add_gate("g2", tt_not(), f1);  // registered: different signal
  const Circuit::FaninSpec fr[2] = {{g1, 0}, {g2, 0}};
  const NodeId r = c.add_gate("r", tt_xor(2), fr);
  c.add_po("$po:o", {r, 0});
  const Circuit d = dedupe(c);
  EXPECT_EQ(d.num_gates(), 3);  // nothing merged
}

TEST(Dedupe, SequentialSuiteBehaviorPreserved) {
  for (const auto& spec : tiny_suite()) {
    const Circuit c = generate_fsm_circuit(spec);
    const Circuit d = dedupe(c);
    EXPECT_LE(d.num_gates(), c.num_gates());
    Rng rng(spec.seed + 21);
    const auto stimulus = random_stimulus(rng, c.num_pis(), 64);
    EXPECT_EQ(simulate_sequence(c, stimulus), simulate_sequence(d, stimulus)) << spec.name;
  }
}

// ---- text table ----

TEST(TextTable, AlignsAndValidates) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.5"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one-cell"}), Error);
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
}

}  // namespace
}  // namespace turbosyn
