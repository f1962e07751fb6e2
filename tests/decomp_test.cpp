#include <gtest/gtest.h>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "decomp/gate_decomp.hpp"
#include "decomp/roth_karp.hpp"
#include "netlist/gates.hpp"
#include "oracle.hpp"
#include "sim/simulator.hpp"

namespace turbosyn {
namespace {

TruthTable random_tt(Rng& rng, int vars) {
  TruthTable t = TruthTable::constant(vars, false);
  for (std::uint32_t i = 0; i < t.num_bits(); ++i) {
    if (rng.next_bool()) t.set_bit(i, true);
  }
  return t;
}

// ---- Column multiplicity ----

TEST(ColumnMultiplicity, KnownValues) {
  // f = (x1 & x2) | x0 with bound set {x1, x2}: the columns are {x0, 1}.
  const TruthTable f = (TruthTable::var(3, 1) & TruthTable::var(3, 2)) | TruthTable::var(3, 0);
  const ColumnClasses classes = classify_columns(f, 2);
  EXPECT_EQ(classes.multiplicity(), 2u);
  EXPECT_EQ(classes.code_of, (std::vector<std::uint32_t>{0, 0, 0, 1}));
  EXPECT_EQ(TruthTable::from_words(1, classes.column(0)), TruthTable::var(1, 0));
  EXPECT_EQ(TruthTable::from_words(1, classes.column(1)), TruthTable::constant(1, true));
  // s ? a : b with bound set {a, b}: the columns over the select are
  // 0, s, !s and 1, all distinct.
  const TruthTable mux = tt_mux();  // variables: select, then the two data inputs
  EXPECT_EQ(classify_columns(mux, 2).multiplicity(), 4u);
}

// The column of bound assignment a (bound set on the top `bound` variables),
// read bit by bit.
std::vector<bool> column_of(const TruthTable& f, int bound, std::uint32_t a) {
  const int free_vars = f.num_vars() - bound;
  std::vector<bool> column(std::size_t{1} << free_vars);
  for (std::uint32_t y = 0; y < column.size(); ++y) column[y] = f.bit(y | (a << free_vars));
  return column;
}

// Checks a classification against the definition: equal codes iff equal
// columns, each class table is its first column, and codes are numbered by
// first appearance with bound variable 0 as the most significant bit.
void expect_definitional(const ColumnClasses& classes, const TruthTable& f, int bound) {
  const std::uint32_t assignments = std::uint32_t{1} << bound;
  ASSERT_EQ(classes.code_of.size(), assignments);
  for (std::uint32_t a = 0; a < assignments; ++a) {
    for (std::uint32_t b = 0; b < assignments; ++b) {
      EXPECT_EQ(classes.code_of[a] == classes.code_of[b],
                column_of(f, bound, a) == column_of(f, bound, b))
          << "a=" << a << " b=" << b;
    }
  }
  std::uint32_t next_code = 0;
  for (std::uint32_t r = 0; r < assignments; ++r) {
    std::uint32_t a = 0;
    for (int j = 0; j < bound; ++j) a |= ((r >> (bound - 1 - j)) & 1) << j;
    const std::uint32_t code = classes.code_of[a];
    if (code < next_code) continue;
    ASSERT_EQ(code, next_code) << "class numbered out of first-appearance order";
    ASSERT_LT(code, classes.multiplicity());
    const TruthTable table = TruthTable::from_words(classes.free_vars, classes.column(code));
    ASSERT_EQ(table.num_vars(), f.num_vars() - bound);
    const std::vector<bool> column = column_of(f, bound, a);
    for (std::uint32_t y = 0; y < column.size(); ++y) {
      EXPECT_EQ(table.bit(y), column[y]) << "class " << code << " bit " << y;
    }
    ++next_code;
  }
  EXPECT_EQ(next_code, classes.multiplicity());
}

// A function over free_vars + bound variables whose columns are drawn from
// `distinct` random tables, so classes with several members occur.
TruthTable function_with_columns(Rng& rng, int bound, int free_vars, int distinct) {
  std::vector<TruthTable> pool;
  for (int i = 0; i < distinct; ++i) pool.push_back(random_tt(rng, free_vars));
  TruthTable f = TruthTable::constant(free_vars + bound, false);
  for (std::uint32_t a = 0; a < (std::uint32_t{1} << bound); ++a) {
    const TruthTable& column = pool[rng.next_below(pool.size())];
    for (std::uint32_t y = 0; y < column.num_bits(); ++y) {
      if (column.bit(y)) f.set_bit(y | (a << free_vars), true);
    }
  }
  return f;
}

TEST(ColumnMultiplicity, ClassifierMatchesColumnDefinition) {
  Rng rng(23);
  for (int bound = 2; bound <= 5; ++bound) {
    for (int free_vars = 0; free_vars <= 10; ++free_vars) {
      for (const int distinct : {1, 3, 1 << bound}) {
        const TruthTable f = function_with_columns(rng, bound, free_vars, distinct);
        SCOPED_TRACE("bound=" + std::to_string(bound) + " free=" + std::to_string(free_vars) +
                     " distinct=" + std::to_string(distinct));
        expect_definitional(classify_columns(f, bound), f, bound);
      }
    }
  }
}

TEST(ColumnMultiplicity, XorChainIsAlwaysTwo) {
  for (int vars = 3; vars <= 12; ++vars) {
    for (int boundary = 1; boundary < vars; ++boundary) {
      EXPECT_EQ(classify_columns(tt_xor(vars), boundary).multiplicity(), 2u);
    }
  }
}

// ---- decompose_for_label ----

TEST(RothKarp, TrivialWhenFunctionFits) {
  const TruthTable f = tt_and(4);
  const std::vector<int> eff(4, 0);
  DecompOptions opt;
  opt.k = 5;
  const DecompResult r = decompose_for_label(f, eff, 1, opt);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.luts.size(), 1u);
  EXPECT_EQ(r.achieved_label, 1);
  EXPECT_TRUE(decomposition_matches(r, f));
}

TEST(RothKarp, XorChainDecomposesToDepthTwo) {
  const int m = 10;
  const TruthTable f = tt_xor(m);
  const std::vector<int> eff(static_cast<std::size_t>(m), 0);
  DecompOptions opt;
  opt.k = 5;
  const DecompResult r = decompose_for_label(f, eff, 2, opt);
  ASSERT_TRUE(r.success);
  EXPECT_LE(r.achieved_label, 2);
  EXPECT_TRUE(decomposition_matches(r, f));
}

TEST(RothKarp, CriticalInputStaysShallow) {
  // f = s ^ (a&b) ^ (c&d) with s critical (eff = 1): target 2 forces s into
  // the root while {a,b} and {c,d} go through encoders (the Figure-1 case).
  const TruthTable f = TruthTable::var(5, 0) ^
                       (TruthTable::var(5, 1) & TruthTable::var(5, 2)) ^
                       (TruthTable::var(5, 3) & TruthTable::var(5, 4));
  const std::vector<int> eff = {1, 0, 0, 0, 0};
  DecompOptions opt;
  opt.k = 3;
  const DecompResult r = decompose_for_label(f, eff, 2, opt);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.achieved_label, 2);
  EXPECT_TRUE(decomposition_matches(r, f));
  // s (input 0) must feed the root LUT directly.
  const DecompLut& root = r.luts.back();
  bool s_at_root = false;
  for (const DecompFanin& fin : root.fanins) {
    if (fin == DecompFanin::input(0)) s_at_root = true;
  }
  EXPECT_TRUE(s_at_root);
}

TEST(RothKarp, FailsWhenNoSlackAnywhere) {
  // All inputs critical and too many of them: no bound set is allowed.
  const TruthTable f = tt_xor(7);
  const std::vector<int> eff(7, 1);
  DecompOptions opt;
  opt.k = 5;
  const DecompResult r = decompose_for_label(f, eff, 2, opt);
  EXPECT_FALSE(r.success);
}

TEST(RothKarp, NonSupportInputsAreDropped) {
  // f only depends on x0, x4; the other variables came from a wide min-cut.
  const TruthTable f = TruthTable::var(6, 0) & TruthTable::var(6, 4);
  const std::vector<int> eff = {0, 5, 5, 5, 0, 5};  // junk labels on non-support
  DecompOptions opt;
  opt.k = 4;
  const DecompResult r = decompose_for_label(f, eff, 1, opt);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.achieved_label, 1);
  EXPECT_TRUE(decomposition_matches(r, f));
}

class RothKarpRandomFunctions : public ::testing::TestWithParam<int> {};

TEST_P(RothKarpRandomFunctions, AnySuccessIsExactAndKBounded) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  const int m = static_cast<int>(rng.next_in(5, 12));
  const TruthTable f = random_tt(rng, m);
  std::vector<int> eff(static_cast<std::size_t>(m));
  for (auto& e : eff) e = static_cast<int>(rng.next_in(0, 2));
  const int target = static_cast<int>(rng.next_in(2, 4));
  DecompOptions opt;
  opt.k = static_cast<int>(rng.next_in(3, 6));
  const DecompResult r = decompose_for_label(f, eff, target, opt);
  if (!r.success) return;  // random functions are often indecomposable
  EXPECT_TRUE(decomposition_matches(r, f));
  EXPECT_LE(r.achieved_label, target);
  for (const DecompLut& lut : r.luts) {
    EXPECT_LE(lut.func.num_vars(), opt.k);
    EXPECT_EQ(static_cast<std::size_t>(lut.func.num_vars()), lut.fanins.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RothKarpRandomFunctions, ::testing::Range(0, 25));

// A function over m variables: with probability 1/4 a dense random table,
// otherwise the last gate of a random network of 2-4 input gates, whose bound
// sets often have low column multiplicity, so the search takes steps,
// builds residues and backtracks.
TruthTable random_network_function(Rng& rng, int m) {
  if (rng.next_bool(0.25)) return random_tt(rng, m);
  std::vector<TruthTable> pool;
  for (int i = 0; i < m; ++i) pool.push_back(TruthTable::var(m, i));
  const int gates = m + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(m)));
  for (int g = 0; g < gates; ++g) {
    const int r = static_cast<int>(rng.next_in(2, 4));
    const std::size_t window = std::min<std::size_t>(pool.size(), static_cast<std::size_t>(m));
    std::vector<TruthTable> inputs;
    for (int j = 0; j < r; ++j) inputs.push_back(pool[pool.size() - 1 - rng.next_below(window)]);
    pool.push_back(compose(random_tt(rng, r), inputs));
  }
  return pool.back();
}

TEST(RothKarp, MatchesBitSerialReferenceLutForLut) {
  Rng rng(4099);
  int successes = 0;
  int multi_lut = 0;
  for (int trial = 0; trial < 1200; ++trial) {
    const int m = static_cast<int>(rng.next_in(6, 15));
    const TruthTable f = random_network_function(rng, m);
    std::vector<int> eff(static_cast<std::size_t>(m));
    int top = 0;
    for (auto& e : eff) {
      e = static_cast<int>(rng.next_in(0, 3));
      top = std::max(top, e);
    }
    const int target = top + static_cast<int>(rng.next_in(1, 3));
    DecompOptions opt;
    opt.k = static_cast<int>(rng.next_in(4, 6));
    const DecompResult got = decompose_for_label(f, eff, target, opt);
    const DecompResult want = oracle::decompose_for_label_reference(f, eff, target, opt);
    SCOPED_TRACE("trial " + std::to_string(trial) + " m=" + std::to_string(m) +
                 " k=" + std::to_string(opt.k) + " target=" + std::to_string(target));
    ASSERT_EQ(got.success, want.success);
    ASSERT_EQ(got.achieved_label, want.achieved_label);
    ASSERT_EQ(got.luts.size(), want.luts.size());
    for (std::size_t i = 0; i < got.luts.size(); ++i) {
      EXPECT_EQ(got.luts[i].func, want.luts[i].func) << "LUT " << i;
      EXPECT_EQ(got.luts[i].fanins, want.luts[i].fanins) << "LUT " << i;
    }
    successes += got.success ? 1 : 0;
    multi_lut += got.luts.size() > 1 ? 1 : 0;
  }
  // The sample must exercise real Roth–Karp steps, not only the trivial
  // single-LUT case and immediate failures.
  EXPECT_GT(successes, 200);
  EXPECT_GT(multi_lut, 100);
}

// ---- gate_decompose ----

TEST(GateDecompose, WideAndBecomesBalancedTree) {
  Circuit c;
  std::vector<Circuit::FaninSpec> fanins;
  for (int i = 0; i < 9; ++i) fanins.push_back({c.add_pi("i" + std::to_string(i)), 0});
  const NodeId g = c.add_gate("wide", tt_and(9), fanins);
  c.add_po("$po:o", {g, 0});
  const Circuit d = gate_decompose(c, 3);
  EXPECT_TRUE(d.is_k_bounded(3));
  // Balanced 3-ary tree over 9 inputs: 3 + 1 gates, depth 2.
  EXPECT_EQ(d.num_gates(), 4);
}

TEST(GateDecompose, PreservesSequentialBehavior) {
  // A wide XNOR fed through registers, in a feedback loop.
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId b = c.add_pi("b");
  const NodeId g = c.declare_gate("g");
  std::vector<Circuit::FaninSpec> fanins;
  fanins.push_back({a, 0});
  fanins.push_back({b, 1});
  fanins.push_back({g, 1});  // self feedback
  for (int i = 0; i < 4; ++i) fanins.push_back({c.add_pi("p" + std::to_string(i)), 0});
  c.finish_gate(g, tt_xnor(7), fanins);
  c.add_po("$po:q", {g, 0});
  c.validate();

  const Circuit d = gate_decompose(c, 4);
  EXPECT_TRUE(d.is_k_bounded(4));
  Rng rng(31);
  const auto stimulus = random_stimulus(rng, c.num_pis(), 64);
  EXPECT_EQ(simulate_sequence(c, stimulus), simulate_sequence(d, stimulus));
}

TEST(GateDecompose, RandomWideFunctionsViaShannon) {
  Rng rng(37);
  for (int trial = 0; trial < 5; ++trial) {
    Circuit c;
    const int m = static_cast<int>(rng.next_in(6, 9));
    std::vector<Circuit::FaninSpec> fanins;
    for (int i = 0; i < m; ++i) fanins.push_back({c.add_pi("i" + std::to_string(i)), 0});
    const NodeId g = c.add_gate("wide", random_tt(rng, m), fanins);
    c.add_po("$po:o", {g, 0});
    const Circuit d = gate_decompose(c, 4);
    EXPECT_TRUE(d.is_k_bounded(4));
    const auto stimulus = random_stimulus(rng, c.num_pis(), 64);
    EXPECT_EQ(simulate_sequence(c, stimulus), simulate_sequence(d, stimulus));
  }
}

TEST(GateDecompose, RequiresKAtLeastThree) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId g = c.add_gate("g", tt_buf(), std::vector<Circuit::FaninSpec>{{a, 0}});
  c.add_po("$po:o", {g, 0});
  EXPECT_THROW((void)gate_decompose(c, 2), Error);
}

}  // namespace
}  // namespace turbosyn
