// Howard's algorithm cross-checked against the binary-search + Bellman–Ford
// cycle-ratio oracle (oracle.hpp) on hand-built circuits and the synthetic
// suites.

#include <gtest/gtest.h>

#include "base/check.hpp"
#include "netlist/gates.hpp"
#include "oracle.hpp"
#include "retime/howard.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"

namespace turbosyn {
namespace {

CycleRatioResult howard_of(const Circuit& c) { return circuit_mdr_howard(c); }

TEST(Howard, RingRatios) {
  EXPECT_EQ(howard_of(ring_circuit(5, 2)).ratio, Rational(5, 2));
  EXPECT_EQ(howard_of(ring_circuit(7, 3)).ratio, Rational(7, 3));
  EXPECT_EQ(howard_of(ring_circuit(6, 6)).ratio, Rational(1));
}

TEST(Howard, AcyclicIsZero) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const Circuit::FaninSpec f[1] = {{a, 1}};
  const NodeId g = c.add_gate("g", tt_buf(), f);
  c.add_po("$po:o", {g, 0});
  EXPECT_EQ(howard_of(c).ratio, Rational(0));
  EXPECT_TRUE(howard_of(c).critical_cycle.empty());
}

TEST(Howard, CriticalCycleIsConsistent) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[2]);
  const CycleRatioResult r = howard_of(c);
  ASSERT_FALSE(r.critical_cycle.empty());
  std::int64_t d_sum = 0;
  std::int64_t w_sum = 0;
  for (const EdgeId e : r.critical_cycle) {
    d_sum += c.delay(c.edge(e).to);
    w_sum += c.edge(e).weight;
  }
  EXPECT_EQ(Rational(d_sum, w_sum), r.ratio);
}

class HowardVsBellmanFord : public ::testing::TestWithParam<int> {};

TEST_P(HowardVsBellmanFord, EnginesAgreeOnSuiteCircuits) {
  const auto specs = tiny_suite();
  const Circuit c = generate_fsm_circuit(specs[static_cast<std::size_t>(GetParam()) % specs.size()]);
  EXPECT_EQ(howard_of(c).ratio, oracle::circuit_mdr(c).ratio);
}

INSTANTIATE_TEST_SUITE_P(Suite, HowardVsBellmanFord, ::testing::Range(0, 6));

TEST(Howard, AgreesOnTable1Circuit) {
  const Circuit c = generate_fsm_circuit(table1_suite()[0]);
  EXPECT_EQ(howard_of(c).ratio, oracle::circuit_mdr(c).ratio);
}

TEST(Howard, CombinationalLoopThrows) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId g1 = c.declare_gate("g1");
  const NodeId g2 = c.declare_gate("g2");
  const Circuit::FaninSpec f1[2] = {{a, 0}, {g2, 0}};
  c.finish_gate(g1, tt_and(2), f1);
  const Circuit::FaninSpec f2[1] = {{g1, 0}};
  c.finish_gate(g2, tt_not(), f2);
  c.add_po("$po:o", {g2, 0});
  EXPECT_THROW((void)howard_of(c), Error);
}

}  // namespace
}  // namespace turbosyn
