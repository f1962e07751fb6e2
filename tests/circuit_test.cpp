#include "netlist/circuit.hpp"

#include <gtest/gtest.h>

#include "base/check.hpp"
#include "netlist/gates.hpp"

namespace turbosyn {
namespace {

TEST(Circuit, BasicConstruction) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId b = c.add_pi("b");
  const Circuit::FaninSpec fanins[2] = {{a, 0}, {b, 1}};
  const NodeId g = c.add_gate("g", tt_and(2), fanins);
  const NodeId po = c.add_po("$po:o", {g, 0});
  c.validate();

  EXPECT_EQ(c.num_pis(), 2);
  EXPECT_EQ(c.num_pos(), 1);
  EXPECT_EQ(c.num_gates(), 1);
  EXPECT_EQ(c.num_ffs(), 1);
  EXPECT_TRUE(c.is_pi(a));
  EXPECT_TRUE(c.is_gate(g));
  EXPECT_TRUE(c.is_po(po));
  EXPECT_EQ(c.delay(a), 0);
  EXPECT_EQ(c.delay(g), 1);
  EXPECT_EQ(c.delay(po), 0);
  EXPECT_EQ(c.fanin(g, 1), b);
  EXPECT_EQ(c.find("g"), g);
  EXPECT_EQ(c.find("missing"), kNoNode);
}

TEST(Circuit, DuplicateNamesRejected) {
  Circuit c;
  c.add_pi("x");
  EXPECT_THROW((void)c.add_pi("x"), Error);
}

TEST(Circuit, ArityMismatchRejected) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const Circuit::FaninSpec fanins[1] = {{a, 0}};
  EXPECT_THROW((void)c.add_gate("g", tt_and(2), fanins), Error);
}

TEST(Circuit, TwoPhaseConstructionSupportsCycles) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId g1 = c.declare_gate("g1");
  const NodeId g2 = c.declare_gate("g2");
  const Circuit::FaninSpec f1[2] = {{a, 0}, {g2, 1}};  // loop closed by a register
  c.finish_gate(g1, tt_xor(2), f1);
  const Circuit::FaninSpec f2[1] = {{g1, 0}};
  c.finish_gate(g2, tt_not(), f2);
  c.add_po("$po:o", {g2, 0});
  c.validate();
  EXPECT_EQ(compute_stats(c).sccs_with_cycle, 1);
}

TEST(Circuit, ValidateRejectsUnfinishedGate) {
  Circuit c;
  c.add_pi("a");
  c.declare_gate("g");
  EXPECT_THROW(c.validate(), Error);
}

TEST(Circuit, ValidateRejectsCombinationalLoop) {
  Circuit c;
  const NodeId g1 = c.declare_gate("g1");
  const NodeId g2 = c.declare_gate("g2");
  const Circuit::FaninSpec f1[1] = {{g2, 0}};
  c.finish_gate(g1, tt_not(), f1);
  const Circuit::FaninSpec f2[1] = {{g1, 0}};
  c.finish_gate(g2, tt_not(), f2);
  EXPECT_THROW(c.validate(), Error);
}

TEST(Circuit, FinishGateTwiceRejected) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId g = c.declare_gate("g");
  const Circuit::FaninSpec f[1] = {{a, 0}};
  c.finish_gate(g, tt_buf(), f);
  EXPECT_THROW(c.finish_gate(g, tt_buf(), f), Error);
}

TEST(Circuit, NegativeEdgeWeightRejected) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const Circuit::FaninSpec f[1] = {{a, -1}};
  EXPECT_THROW((void)c.add_gate("g", tt_buf(), f), Error);
}

TEST(Circuit, ConstantsAreSources) {
  Circuit c;
  const NodeId k1 = c.add_gate("one", TruthTable::constant(0, true), {});
  c.add_po("$po:o", {k1, 0});
  c.validate();
  EXPECT_TRUE(c.is_source(k1));
  EXPECT_EQ(c.delay(k1), 0);
  EXPECT_EQ(c.num_gates(), 0);  // constants are not LUT-consuming gates
}

TEST(Circuit, StatsCountsSelfLoops) {
  Circuit c;
  const NodeId g = c.declare_gate("g");
  const Circuit::FaninSpec f[1] = {{g, 1}};
  c.finish_gate(g, tt_not(), f);
  c.add_po("$po:o", {g, 0});
  EXPECT_EQ(compute_stats(c).sccs_with_cycle, 1);
}

}  // namespace
}  // namespace turbosyn
