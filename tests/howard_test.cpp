// Howard's algorithm cross-checked against the binary-search + Bellman–Ford
// cycle-ratio oracle (oracle.hpp) on hand-built circuits and the synthetic
// suites.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "base/check.hpp"
#include "netlist/gates.hpp"
#include "oracle.hpp"
#include "retime/howard.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"

namespace turbosyn {
namespace {

CycleRatioResult howard_of(const Circuit& c) { return circuit_mdr_howard(c); }

/// Howard's ratio equals the oracle's, and its critical cycle is a closed
/// walk whose delay over registers is that ratio.
void expect_matches_oracle(const Circuit& c) {
  const CycleRatioResult r = howard_of(c);
  EXPECT_EQ(r.ratio, oracle::circuit_mdr(c).ratio);
  if (r.ratio == Rational(0)) return;
  ASSERT_FALSE(r.critical_cycle.empty());
  std::int64_t delay = 0;
  std::int64_t registers = 0;
  for (std::size_t i = 0; i < r.critical_cycle.size(); ++i) {
    const Circuit::Edge& e = c.edge(r.critical_cycle[i]);
    const Circuit::Edge& next = c.edge(r.critical_cycle[(i + 1) % r.critical_cycle.size()]);
    EXPECT_EQ(e.to, next.from) << "critical cycle breaks after edge " << i;
    delay += c.delay(e.to);
    registers += e.weight;
  }
  ASSERT_GT(registers, 0);
  EXPECT_EQ(Rational(delay, registers), r.ratio);
}

/// A random strongly connected gate graph: a ring through all n gates plus
/// `chords` random edges. Edges pointing to a lower index carry 1..max_w
/// registers and the others 0..max_w, so every cycle is registered.
Circuit random_ring_graph(int n, int chords, int max_w, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<Circuit::FaninSpec>> fanins(static_cast<std::size_t>(n));
  Circuit c;
  std::vector<NodeId> gate(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    gate[static_cast<std::size_t>(i)] = c.declare_gate(std::to_string(i) + "g");
  }
  const auto connect = [&](int from, int to) {
    const int min_w = from >= to ? 1 : 0;
    const int w = min_w + static_cast<int>(rng() % static_cast<std::uint64_t>(max_w - min_w + 1));
    fanins[static_cast<std::size_t>(to)].push_back({gate[static_cast<std::size_t>(from)], w});
  };
  for (int i = 0; i < n; ++i) connect(i, (i + 1) % n);
  for (int j = 0; j < chords; ++j) {
    connect(static_cast<int>(rng() % static_cast<std::uint64_t>(n)),
            static_cast<int>(rng() % static_cast<std::uint64_t>(n)));
  }
  for (int i = 0; i < n; ++i) {
    const auto& f = fanins[static_cast<std::size_t>(i)];
    c.finish_gate(gate[static_cast<std::size_t>(i)],
                  TruthTable::var(static_cast<int>(f.size()), 0), f);
  }
  return c;
}

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

// Long cycles with up to 10^9 registers per edge: potentials reach about
// 10^14, so comparing two of them by cross-multiplying denominators would
// overflow int64. They must compare over one denominator.
TEST(Howard, AgreesWithOracleOnLargeRegisterCounts) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    const int n = 40 + static_cast<int>(seed % 4) * 70;
    expect_matches_oracle(random_ring_graph(n, n / 2, 1'000'000'000, seed));
  }
}

// Registers of 0..2 per edge make many cycles tie on their ratio (2/4 and
// 1/2, 3/3 and 1/1, ...); ties are where potentials of different policy
// cycles meet.
TEST(Howard, AgreesWithOracleOnTiedRatios) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    expect_matches_oracle(random_ring_graph(6 + static_cast<int>(seed % 20), 12, 2, seed));
  }
}

// Two cycles through gate a: a -> b -> a over 4 registers (2/4) and a
// self-loop over 2 registers (1/2). Equal ratios, different unreduced
// pairs, one shared node.
TEST(Howard, EqualRatiosFromDifferentCyclesCompareEqual) {
  Circuit c;
  const NodeId a = c.declare_gate("a");
  const NodeId b = c.declare_gate("b");
  const Circuit::FaninSpec fa[2] = {{b, 2}, {a, 2}};
  c.finish_gate(a, tt_and(2), fa);
  const Circuit::FaninSpec fb[1] = {{a, 2}};
  c.finish_gate(b, tt_buf(), fb);
  EXPECT_EQ(howard_of(c).ratio, Rational(1, 2));
  expect_matches_oracle(c);
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
