#include "bdd/bdd.hpp"

#include <gtest/gtest.h>

#include <set>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "base/truth_table.hpp"
#include "netlist/gates.hpp"

namespace turbosyn {
namespace {

TruthTable random_tt(Rng& rng, int vars) {
  TruthTable t = TruthTable::constant(vars, false);
  for (std::uint32_t i = 0; i < t.num_bits(); ++i) {
    if (rng.next_bool()) t.set_bit(i, true);
  }
  return t;
}

TEST(Bdd, TerminalsAndVars) {
  BddManager mgr(4);
  EXPECT_TRUE(mgr.is_const(mgr.zero()));
  EXPECT_TRUE(mgr.is_const(mgr.one()));
  const BddRef x1 = mgr.var(1);
  EXPECT_EQ(mgr.var_of(x1), 1);
  EXPECT_EQ(mgr.low(x1), mgr.zero());
  EXPECT_EQ(mgr.high(x1), mgr.one());
  const BddRef not_x1 = mgr.bdd_not(x1);
  EXPECT_EQ(mgr.var_of(not_x1), 1);
  EXPECT_EQ(mgr.low(not_x1), mgr.one());
  EXPECT_EQ(mgr.high(not_x1), mgr.zero());
}

TEST(Bdd, HashConsingIsCanonical) {
  BddManager mgr(3);
  // (x0 AND x1) built two different ways must be the same node.
  const BddRef a = mgr.bdd_and(mgr.var(0), mgr.var(1));
  const BddRef b = mgr.bdd_not(mgr.bdd_or(mgr.bdd_not(mgr.var(0)), mgr.bdd_not(mgr.var(1))));
  EXPECT_EQ(a, b);
}

TEST(Bdd, IteBasicIdentities) {
  BddManager mgr(3);
  const BddRef f = mgr.var(0);
  const BddRef g = mgr.var(1);
  EXPECT_EQ(mgr.ite(mgr.one(), f, g), f);
  EXPECT_EQ(mgr.ite(mgr.zero(), f, g), g);
  EXPECT_EQ(mgr.ite(f, g, g), g);
  EXPECT_EQ(mgr.ite(f, mgr.one(), mgr.zero()), f);
}

// The ROBDD of t by Shannon expansion through ite, top level first.
BddRef shannon(BddManager& mgr, const TruthTable& t, int level) {
  if (level == t.num_vars()) return t.bit(0) ? mgr.one() : mgr.zero();
  const BddRef hi = shannon(mgr, t.cofactor(level, true), level + 1);
  const BddRef lo = shannon(mgr, t.cofactor(level, false), level + 1);
  return mgr.ite(mgr.var(level), hi, lo);
}

// f evaluated on `assignment` (bit i = variable i) by walking from the root.
bool evaluate(const BddManager& mgr, BddRef f, std::uint32_t assignment) {
  while (!mgr.is_const(f)) f = (assignment >> mgr.var_of(f)) & 1 ? mgr.high(f) : mgr.low(f);
  return f == mgr.one();
}

// The truth table f denotes over `vars` variables, one walk per assignment.
TruthTable table_of(const BddManager& mgr, BddRef f, int vars) {
  TruthTable t = TruthTable::constant(vars, false);
  for (std::uint32_t a = 0; a < t.num_bits(); ++a) t.set_bit(a, evaluate(mgr, f, a));
  return t;
}

// Internal nodes reachable from f, and the variables they test.
struct Reach {
  std::set<BddRef> nodes;
  std::set<int> vars;
};

Reach reach(const BddManager& mgr, BddRef f) {
  Reach r;
  std::vector<BddRef> stack{f};
  while (!stack.empty()) {
    const BddRef x = stack.back();
    stack.pop_back();
    if (mgr.is_const(x) || !r.nodes.insert(x).second) continue;
    r.vars.insert(mgr.var_of(x));
    stack.push_back(mgr.low(x));
    stack.push_back(mgr.high(x));
  }
  return r;
}

TEST(Bdd, TruthTableRoundTripRandom) {
  Rng rng(11);
  for (const int vars : {1, 3, 6, 9, 12}) {
    for (int trial = 0; trial < 4; ++trial) {
      const TruthTable t = random_tt(rng, vars);
      BddManager mgr(vars);
      EXPECT_EQ(table_of(mgr, shannon(mgr, t, 0), vars), t) << "vars=" << vars;
    }
  }
}

TEST(Bdd, OperatorsMatchTruthTables) {
  Rng rng(13);
  const int vars = 7;
  const TruthTable ta = random_tt(rng, vars);
  const TruthTable tb = random_tt(rng, vars);
  BddManager mgr(vars);
  const BddRef a = shannon(mgr, ta, 0);
  const BddRef b = shannon(mgr, tb, 0);
  EXPECT_EQ(table_of(mgr, mgr.bdd_and(a, b), vars), ta & tb);
  EXPECT_EQ(table_of(mgr, mgr.bdd_or(a, b), vars), ta | tb);
  EXPECT_EQ(table_of(mgr, mgr.bdd_xor(a, b), vars), ta ^ tb);
  EXPECT_EQ(table_of(mgr, mgr.bdd_not(a), vars), ~ta);
}

TEST(Bdd, SupportMatchesTruthTable) {
  // A reduced diagram tests exactly the variables the function depends on.
  const TruthTable t = TruthTable::var(6, 1) ^ TruthTable::var(6, 4);
  BddManager mgr(6);
  const std::set<int> vars = reach(mgr, shannon(mgr, t, 0)).vars;
  EXPECT_EQ(std::vector<int>(vars.begin(), vars.end()), t.support());
}

TEST(Bdd, DagSizeOfXorIsLinear) {
  const int vars = 10;
  BddManager mgr(vars);
  BddRef f = mgr.var(0);
  for (int v = 1; v < vars; ++v) f = mgr.bdd_xor(f, mgr.var(v));
  // XOR has exactly 2 nodes per level except the top.
  EXPECT_EQ(reach(mgr, f).nodes.size(), static_cast<std::size_t>(2 * vars - 1));
  EXPECT_EQ(f, shannon(mgr, tt_xor(vars), 0));
}

TEST(Bdd, FromTruthTableEqualsShannonBuild) {
  // Canonicity, which the miter's "is it the zero terminal" test rests on:
  // a table built as a sum of minterms through and/or/not lands on the same
  // node as its Shannon expansion.
  Rng rng(23);
  for (int vars = 0; vars <= 8; ++vars) {
    BddManager mgr(vars);
    for (int trial = 0; trial < 3; ++trial) {
      const TruthTable t = random_tt(rng, vars);
      BddRef sum = mgr.zero();
      for (std::uint32_t a = 0; a < t.num_bits(); ++a) {
        if (!t.bit(a)) continue;
        BddRef minterm = mgr.one();
        for (int v = 0; v < vars; ++v) {
          const BddRef x = mgr.var(v);
          minterm = mgr.bdd_and(minterm, (a >> v) & 1 ? x : mgr.bdd_not(x));
        }
        sum = mgr.bdd_or(sum, minterm);
      }
      EXPECT_EQ(sum, shannon(mgr, t, 0)) << "vars=" << vars;
    }
  }
}

TEST(Bdd, NodeBudgetIsEnforced) {
  BddManager mgr(16, /*node_budget=*/8);
  EXPECT_THROW(
      {
        BddRef acc = mgr.one();
        for (int i = 0; i < 16; ++i) acc = mgr.bdd_and(acc, mgr.var(i));
      },
      Error);
}

}  // namespace
}  // namespace turbosyn
