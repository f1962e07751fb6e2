#include "bdd/bdd.hpp"

#include <gtest/gtest.h>

#include "base/check.hpp"
#include "base/rng.hpp"
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
  EXPECT_EQ(mgr.nvar(1), mgr.bdd_not(x1));
}

TEST(Bdd, HashConsingIsCanonical) {
  BddManager mgr(3);
  // (x0 AND x1) built two different ways must be the same node.
  const BddRef a = mgr.bdd_and(mgr.var(0), mgr.var(1));
  const BddRef b = mgr.bdd_not(mgr.bdd_or(mgr.nvar(0), mgr.nvar(1)));
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

TEST(Bdd, TruthTableRoundTripRandom) {
  Rng rng(11);
  for (const int vars : {1, 3, 6, 9, 12}) {
    for (int trial = 0; trial < 4; ++trial) {
      const TruthTable t = random_tt(rng, vars);
      BddManager mgr(vars);
      const BddRef f = mgr.from_truth_table(t);
      EXPECT_EQ(mgr.to_truth_table(f, vars), t) << "vars=" << vars;
    }
  }
}

TEST(Bdd, OperatorsMatchTruthTables) {
  Rng rng(13);
  const int vars = 7;
  const TruthTable ta = random_tt(rng, vars);
  const TruthTable tb = random_tt(rng, vars);
  BddManager mgr(vars);
  const BddRef a = mgr.from_truth_table(ta);
  const BddRef b = mgr.from_truth_table(tb);
  EXPECT_EQ(mgr.to_truth_table(mgr.bdd_and(a, b), vars), ta & tb);
  EXPECT_EQ(mgr.to_truth_table(mgr.bdd_or(a, b), vars), ta | tb);
  EXPECT_EQ(mgr.to_truth_table(mgr.bdd_xor(a, b), vars), ta ^ tb);
  EXPECT_EQ(mgr.to_truth_table(mgr.bdd_not(a), vars), ~ta);
}

TEST(Bdd, SatCountMatchesPopcount) {
  Rng rng(17);
  for (const int vars : {2, 5, 10}) {
    const TruthTable t = random_tt(rng, vars);
    BddManager mgr(vars);
    EXPECT_EQ(mgr.sat_count(mgr.from_truth_table(t)), t.count_ones());
  }
}

TEST(Bdd, SupportMatchesTruthTable) {
  const TruthTable t = TruthTable::var(6, 1) ^ TruthTable::var(6, 4);
  BddManager mgr(6);
  EXPECT_EQ(mgr.support(mgr.from_truth_table(t)), t.support());
}

TEST(Bdd, RestrictMatchesCofactor) {
  Rng rng(19);
  const int vars = 6;
  const TruthTable t = random_tt(rng, vars);
  BddManager mgr(vars);
  const BddRef f = mgr.from_truth_table(t);
  for (int v = 0; v < vars; ++v) {
    EXPECT_EQ(mgr.to_truth_table(mgr.restrict_var(f, v, false), vars), t.cofactor(v, false));
    EXPECT_EQ(mgr.to_truth_table(mgr.restrict_var(f, v, true), vars), t.cofactor(v, true));
  }
}

TEST(Bdd, DagSizeOfXorIsLinear) {
  const int vars = 10;
  BddManager mgr(vars);
  const BddRef f = mgr.from_truth_table(tt_xor(vars));
  // XOR has exactly 2 nodes per level except the top.
  EXPECT_EQ(mgr.dag_size(f), static_cast<std::size_t>(2 * vars - 1));
}

TEST(Bdd, BoundaryCofactorsCountColumnMultiplicity) {
  // f = (x0 AND x1) XOR x2: cofactors over {x0, x1} are {x2, NOT x2} -> 2.
  const TruthTable f = (TruthTable::var(3, 0) & TruthTable::var(3, 1)) ^ TruthTable::var(3, 2);
  BddManager mgr(3);
  const BddRef r = mgr.from_truth_table(f);
  EXPECT_EQ(mgr.boundary_cofactors(r, 2).size(), 2u);
  // Over {x0} the cofactors are x2 and x1 XOR' x2-ish: x0=0 -> x2; x0=1 -> x1^x2.
  EXPECT_EQ(mgr.boundary_cofactors(r, 1).size(), 2u);
}

TEST(Bdd, CofactorAtWalksBoundAssignments) {
  const TruthTable f = (TruthTable::var(3, 0) & TruthTable::var(3, 1)) ^ TruthTable::var(3, 2);
  BddManager mgr(3);
  const BddRef r = mgr.from_truth_table(f);
  const BddRef c00 = mgr.cofactor_at(r, 2, 0b00);
  const BddRef c11 = mgr.cofactor_at(r, 2, 0b11);
  EXPECT_EQ(mgr.to_truth_table(c00, 3), TruthTable::var(3, 2));
  EXPECT_EQ(mgr.to_truth_table(c11, 3), ~TruthTable::var(3, 2));
}

// The ROBDD of t by Shannon expansion through ite, top level first.
BddRef shannon(BddManager& mgr, const TruthTable& t, int level) {
  if (level == t.num_vars()) return t.bit(0) ? mgr.one() : mgr.zero();
  const BddRef hi = shannon(mgr, t.cofactor(level, true), level + 1);
  const BddRef lo = shannon(mgr, t.cofactor(level, false), level + 1);
  return mgr.ite(mgr.var(level), hi, lo);
}

TEST(Bdd, FromTruthTableEqualsShannonBuild) {
  Rng rng(23);
  for (int vars = 0; vars <= 10; ++vars) {
    BddManager mgr(vars);
    for (int trial = 0; trial < 3; ++trial) {
      const TruthTable t = random_tt(rng, vars);
      EXPECT_EQ(mgr.from_truth_table(t), shannon(mgr, t, 0)) << "vars=" << vars;
    }
    if (vars > 0) {
      EXPECT_EQ(mgr.from_truth_table(tt_xor(vars)), shannon(mgr, tt_xor(vars), 0));
    }
  }
}

TEST(Bdd, SaturationVerdictIsBuildOrderFree) {
  // from_truth_table makes only the result's nodes, so a saturating budget
  // of exactly that many nodes suffices and one fewer exhausts, whatever
  // order the build visits them in.
  Rng rng(29);
  std::vector<TruthTable> tables{tt_xor(9), tt_and(7)};
  for (const int vars : {3, 6, 9, 12}) tables.push_back(random_tt(rng, vars));
  for (const TruthTable& t : tables) {
    const int vars = t.num_vars();
    BddManager exact(vars);
    const BddRef root = exact.from_truth_table(t);
    const std::size_t needed = exact.num_nodes();
    EXPECT_EQ(needed, 2 + exact.dag_size(root));

    BddManager enough(vars, needed, BddManager::OnBudget::kSaturate);
    EXPECT_EQ(enough.to_truth_table(enough.from_truth_table(t), vars), t);
    EXPECT_FALSE(enough.exhausted());

    BddManager short_one(vars, needed - 1, BddManager::OnBudget::kSaturate);
    (void)short_one.from_truth_table(t);
    EXPECT_TRUE(short_one.exhausted()) << "vars=" << vars;
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
