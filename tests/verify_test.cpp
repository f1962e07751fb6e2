#include "verify/equiv.hpp"

#include <gtest/gtest.h>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "core/flows.hpp"
#include "mapping/flowmap.hpp"
#include "mapping/seq_split.hpp"
#include "netlist/blif.hpp"
#include "netlist/gates.hpp"
#include "sim/simulator.hpp"
#include "verify/audit.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"

namespace turbosyn {
namespace {

Circuit two_gate(const TruthTable& top) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId b = c.add_pi("b");
  const NodeId d = c.add_pi("d");
  const Circuit::FaninSpec f1[2] = {{a, 0}, {b, 0}};
  const NodeId g1 = c.add_gate("g1", tt_and(2), f1);
  const Circuit::FaninSpec f2[2] = {{g1, 0}, {d, 0}};
  const NodeId g2 = c.add_gate("g2", top, f2);
  c.add_po("$po:o", {g2, 0});
  return c;
}

TEST(CombEquiv, DetectsEquivalenceAcrossStructures) {
  // (a AND b) OR d built directly vs via De Morgan.
  const Circuit lhs = two_gate(tt_or(2));
  Circuit rhs;
  const NodeId a = rhs.add_pi("a");
  const NodeId b = rhs.add_pi("b");
  const NodeId d = rhs.add_pi("d");
  const Circuit::FaninSpec f1[2] = {{a, 0}, {b, 0}};
  const NodeId n1 = rhs.add_gate("n1", tt_nand(2), f1);
  const Circuit::FaninSpec f2[1] = {{d, 0}};
  const NodeId n2 = rhs.add_gate("n2", tt_not(), f2);
  const Circuit::FaninSpec f3[2] = {{n1, 0}, {n2, 0}};
  const NodeId n3 = rhs.add_gate("o", tt_nand(2), f3);
  rhs.add_po("$po:o", {n3, 0});
  EXPECT_TRUE(combinationally_equivalent(lhs, rhs));
}

TEST(CombEquiv, CounterexampleIsReal) {
  const Circuit lhs = two_gate(tt_or(2));   // (a&b) | d
  const Circuit rhs = two_gate(tt_xor(2));  // (a&b) ^ d
  const auto cex = combinational_counterexample(lhs, rhs);
  ASSERT_TRUE(cex.has_value());
  EXPECT_EQ(cex->po_name, "o");
  // The functions differ exactly where (a&b) & d: check the witness
  // (assignment is indexed by lhs.pis() order: a, b, d).
  ASSERT_EQ(cex->assignment.size(), 3u);
  const bool a = cex->assignment[0];
  const bool b = cex->assignment[1];
  const bool d = cex->assignment[2];
  EXPECT_NE(((a && b) || d), ((a && b) != d));
}

TEST(CombEquiv, FlowMapMappingIsFormallyEquivalent) {
  // The comb block of the split counter, mapped by FlowSYN, must be
  // formally equivalent to the original block.
  const Circuit seq = read_blif_string(counter3_blif());
  const SequentialSplit split = split_at_registers(seq);
  FlowMapOptions opt;
  opt.k = 4;
  opt.enable_decomposition = true;
  const FlowMapResult labels = flowmap(split.comb, opt);
  const Circuit mapped = generate_mapped_circuit(split.comb, labels, opt);
  EXPECT_TRUE(combinationally_equivalent(split.comb, mapped));
}

TEST(CombEquiv, RejectsRegisteredCircuits) {
  const Circuit seq = read_blif_string(counter3_blif());
  EXPECT_THROW((void)combinationally_equivalent(seq, seq), Error);
}

// Chain of 2-input ORs over pis [0, use): avoids a 2^n truth table.
Circuit wide_or(int num_pis, int use, const std::string& po) {
  Circuit c;
  std::vector<NodeId> pis;
  for (int i = 0; i < num_pis; ++i) pis.push_back(c.add_pi("p" + std::to_string(i)));
  NodeId acc = pis[0];
  for (int i = 1; i < use; ++i) {
    const Circuit::FaninSpec f[2] = {{acc, 0}, {pis[static_cast<std::size_t>(i)], 0}};
    acc = c.add_gate("or" + std::to_string(i), tt_or(2), f);
  }
  c.add_po("$po:" + po, {acc, 0});
  return c;
}

TEST(CombEquiv, HandlesMoreThan32Inputs) {
  // 40 PIs: packing the counterexample with `1 << var` (int) would be UB
  // from variable 31 on; the vector<bool> representation has no word limit.
  const Circuit lhs = wide_or(40, 40, "o");
  const Circuit rhs = wide_or(40, 40, "o");
  EXPECT_TRUE(combinationally_equivalent(lhs, rhs));
}

TEST(CombEquiv, CounterexampleBeyondBit32IsReal) {
  const Circuit lhs = wide_or(40, 40, "o");  // OR of all 40 PIs
  const Circuit rhs = wide_or(40, 39, "o");  // ignores p39
  const auto cex = combinational_counterexample(lhs, rhs);
  ASSERT_TRUE(cex.has_value());
  ASSERT_EQ(cex->assignment.size(), 40u);
  // The functions differ exactly when p39 is the only set input.
  EXPECT_TRUE(cex->assignment[39]);
  for (int i = 0; i < 39; ++i) EXPECT_FALSE(cex->assignment[static_cast<std::size_t>(i)]);
}

TEST(CombEquiv, BeyondBddVariableCapThrowsCleanly) {
  // The ROBDD engine is capped at 63 variables (sat counts are uint64);
  // wider miters must reject loudly, not overflow.
  const Circuit lhs = wide_or(70, 70, "o");
  const Circuit rhs = wide_or(70, 70, "o");
  EXPECT_THROW((void)combinationally_equivalent(lhs, rhs), Error);
  // The bounded sequential checker has no PI-width limit.
  EXPECT_TRUE(sequentially_equivalent_bounded(lhs, rhs));
}

TEST(SeqEquiv, IdenticalCircuitsPass) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[0]);
  EXPECT_TRUE(sequentially_equivalent_bounded(c, c));
}

TEST(SeqEquiv, TurboSynMappingPassesFromCycleZero) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[1]);
  FlowOptions opt;
  const FlowResult ts = run_turbosyn(c, opt);
  EXPECT_TRUE(sequentially_equivalent_bounded(c, ts.mapped));
}

TEST(SeqEquiv, FindsInjectedFault) {
  const Circuit good = read_blif_string(pattern_fsm_blif());
  // Break the output gate: z = s1 & s0 & NOT x instead of ... & x.
  Circuit bad = read_blif_string(R"(.model pattern1011
.inputs x
.outputs z
.latch ns0 s0 0
.latch ns1 s1 0
.names x ns0
1 1
.names x s0 s1 ns1
010 1
101 1
011 1
.names x s0 s1 z
011 1
.end
)");
  const auto cex = sequential_counterexample(good, bad);
  ASSERT_TRUE(cex.has_value());
  EXPECT_EQ(cex->po_name, "z");
}

// x -> latch -> y, with POs "a" = x (combinational) and "b" = y (delayed).
Circuit two_output_fsm(bool swap_po_order, bool swap_pi_order) {
  Circuit c;
  NodeId x;
  NodeId e;
  if (swap_pi_order) {
    e = c.add_pi("en");
    x = c.add_pi("x");
  } else {
    x = c.add_pi("x");
    e = c.add_pi("en");
  }
  const Circuit::FaninSpec f[2] = {{x, 0}, {e, 0}};
  const NodeId g = c.add_gate("g", tt_and(2), f);
  if (swap_po_order) {
    c.add_po("$po:b", {g, 1});
    c.add_po("$po:a", {g, 0});
  } else {
    c.add_po("$po:a", {g, 0});
    c.add_po("$po:b", {g, 1});
  }
  return c;
}

TEST(SeqEquiv, MatchesOutputsByNameNotPosition) {
  // Same machine, POs declared in the opposite order: positional comparison
  // would diff "a" against "b" and report a bogus counterexample.
  const Circuit lhs = two_output_fsm(false, false);
  const Circuit rhs = two_output_fsm(true, false);
  EXPECT_TRUE(sequentially_equivalent_bounded(lhs, rhs));
  // And a genuinely differing pair still reports the right PO name.
  Circuit broken = two_output_fsm(true, false);
  {
    Circuit fresh;
    const NodeId x = fresh.add_pi("x");
    const NodeId e = fresh.add_pi("en");
    const Circuit::FaninSpec f[2] = {{x, 0}, {e, 0}};
    const NodeId g = fresh.add_gate("g", tt_or(2), f);  // OR, not AND
    fresh.add_po("$po:b", {g, 1});
    fresh.add_po("$po:a", {g, 0});
    broken = fresh;
  }
  const auto cex = sequential_counterexample(two_output_fsm(false, false), broken);
  ASSERT_TRUE(cex.has_value());
  EXPECT_TRUE(cex->po_name == "a" || cex->po_name == "b");
}

TEST(SeqEquiv, MatchesInputsByNameNotPosition) {
  const Circuit lhs = two_output_fsm(false, false);
  const Circuit rhs = two_output_fsm(false, true);  // PIs declared swapped
  EXPECT_TRUE(sequentially_equivalent_bounded(lhs, rhs));
}

// A registered AND of ten PIs as two 5-input ANDs under a 2-input root. The
// broken copy's root is constant 0, so the pair differs only in a cycle after
// all ten PIs were 1: about one lane-cycle in a thousand.
Circuit registered_and10(bool broken) {
  Circuit c;
  std::vector<Circuit::FaninSpec> low;
  std::vector<Circuit::FaninSpec> high;
  for (int i = 0; i < 10; ++i) {
    (i < 5 ? low : high).push_back({c.add_pi("x" + std::to_string(i)), 0});
  }
  const NodeId a = c.add_gate("a", tt_and(5), low);
  const NodeId b = c.add_gate("b", tt_and(5), high);
  const Circuit::FaninSpec root_in[2] = {{a, 0}, {b, 0}};
  const NodeId root = c.add_gate("root", broken ? TruthTable::constant(2, false) : tt_and(2), root_in);
  c.add_po("$po:z", {root, 1});
  return c;
}

TEST(SeqEquiv, CatchesADifferenceOnlyALaterLaneShows) {
  const Circuit good = registered_and10(false);
  const Circuit bad = registered_and10(true);
  SequentialCheckOptions check;
  check.cycles = 160;
  check.seed = 7;
  const auto cex = sequential_counterexample(good, bad, check);
  ASSERT_TRUE(cex.has_value());
  EXPECT_GE(cex->run, 1);
  EXPECT_EQ(cex->po_name, "z");

  // Lane 0 of the same stimulus never tells the pair apart: a check that
  // compared lane 0 alone would pass them.
  Rng rng(check.seed);
  const auto lane0 = random_stimulus(rng, good.num_pis(), check.cycles);
  EXPECT_EQ(simulate_sequence(good, lane0), simulate_sequence(bad, lane0));

  // The auditor's bounded check (same seed and length) catches it too.
  FlowResult forged;
  forged.mapped = bad;
  forged.phi = 10;    // no loops: keep the mdr stage green
  forged.period = 0;  // skip the period stage; equivalence is the target
  AuditOptions audit;
  audit.seq_cycles = check.cycles;
  audit.seq_seed = check.seed;
  const AuditReport report = audit_flow(good, forged, FlowOptions{}, audit);
  bool equivalence_failed = false;
  for (const AuditCheck& c : report.checks) {
    if (c.name == "equivalence") equivalence_failed = c.status == AuditStatus::kFail;
  }
  EXPECT_TRUE(equivalence_failed) << report.breakdown();
}

}  // namespace
}  // namespace turbosyn
