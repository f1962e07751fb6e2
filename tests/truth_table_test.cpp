#include "base/truth_table.hpp"

#include <gtest/gtest.h>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "netlist/gates.hpp"

namespace turbosyn {
namespace {

TEST(TruthTable, ConstantsHaveExpectedBits) {
  const TruthTable f = TruthTable::constant(3, false);
  const TruthTable t = TruthTable::constant(3, true);
  EXPECT_TRUE(f.is_const0());
  EXPECT_TRUE(t.is_const1());
  EXPECT_EQ(f.count_ones(), 0u);
  EXPECT_EQ(t.count_ones(), 8u);
}

TEST(TruthTable, VarProjectsItsInput) {
  for (int n = 1; n <= 8; ++n) {
    for (int v = 0; v < n; ++v) {
      const TruthTable x = TruthTable::var(n, v);
      for (std::uint32_t a = 0; a < x.num_bits(); ++a) {
        EXPECT_EQ(x.bit(a), ((a >> v) & 1) != 0) << "n=" << n << " v=" << v << " a=" << a;
      }
    }
  }
}

TEST(TruthTable, VarWorksAboveWordBoundary) {
  // Variables with index >= 6 select whole 64-bit words.
  const TruthTable x = TruthTable::var(8, 7);
  EXPECT_FALSE(x.bit(0));
  EXPECT_TRUE(x.bit(1u << 7));
  EXPECT_EQ(x.count_ones(), 128u);
}

TEST(TruthTable, LogicOperatorsMatchBitwiseSemantics) {
  Rng rng(42);
  for (int n : {2, 5, 7}) {
    TruthTable a = TruthTable::constant(n, false);
    TruthTable b = TruthTable::constant(n, false);
    for (std::uint32_t i = 0; i < a.num_bits(); ++i) {
      a.set_bit(i, rng.next_bool());
      b.set_bit(i, rng.next_bool());
    }
    const TruthTable c_and = a & b;
    const TruthTable c_or = a | b;
    const TruthTable c_xor = a ^ b;
    const TruthTable c_not = ~a;
    for (std::uint32_t i = 0; i < a.num_bits(); ++i) {
      EXPECT_EQ(c_and.bit(i), a.bit(i) && b.bit(i));
      EXPECT_EQ(c_or.bit(i), a.bit(i) || b.bit(i));
      EXPECT_EQ(c_xor.bit(i), a.bit(i) != b.bit(i));
      EXPECT_EQ(c_not.bit(i), !a.bit(i));
    }
  }
}

TEST(TruthTable, CofactorFixesAVariable) {
  Rng rng(7);
  for (int n : {3, 6, 9}) {
    TruthTable f = TruthTable::constant(n, false);
    for (std::uint32_t i = 0; i < f.num_bits(); ++i) f.set_bit(i, rng.next_bool());
    for (int v = 0; v < n; ++v) {
      const TruthTable f0 = f.cofactor(v, false);
      const TruthTable f1 = f.cofactor(v, true);
      for (std::uint32_t i = 0; i < f.num_bits(); ++i) {
        const std::uint32_t at0 = i & ~(std::uint32_t{1} << v);
        const std::uint32_t at1 = i | (std::uint32_t{1} << v);
        EXPECT_EQ(f0.bit(i), f.bit(at0));
        EXPECT_EQ(f1.bit(i), f.bit(at1));
      }
    }
  }
}

TEST(TruthTable, SupportDetectsRealDependencies) {
  // f = x0 XOR x2 over 4 variables.
  const TruthTable f = TruthTable::var(4, 0) ^ TruthTable::var(4, 2);
  EXPECT_EQ(f.support(), (std::vector<int>{0, 2}));
  EXPECT_TRUE(f.depends_on(0));
  EXPECT_FALSE(f.depends_on(1));
}

TEST(TruthTable, DropVarRemovesNonSupportVariable) {
  const TruthTable f = TruthTable::var(4, 0) & TruthTable::var(4, 3);
  const TruthTable g = f.drop_var(1);  // x3 shifts down to position 2
  EXPECT_EQ(g.num_vars(), 3);
  EXPECT_EQ(g, TruthTable::var(3, 0) & TruthTable::var(3, 2));
  EXPECT_THROW((void)f.drop_var(0), Error);
}

TEST(TruthTable, RemapPermutesVariables) {
  const TruthTable f = TruthTable::var(3, 0) & ~TruthTable::var(3, 2);
  const int map[3] = {2, 1, 0};
  const TruthTable g = f.remap(3, map);
  EXPECT_EQ(g, TruthTable::var(3, 2) & ~TruthTable::var(3, 0));
}

TEST(TruthTable, RemapCanWidenArity) {
  const TruthTable f = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
  const int map[2] = {4, 1};
  const TruthTable g = f.remap(5, map);
  EXPECT_EQ(g, TruthTable::var(5, 4) ^ TruthTable::var(5, 1));
}

TruthTable random_words(Rng& rng, int vars) {
  std::vector<std::uint64_t> words(vars <= 6 ? 1 : std::size_t{1} << (vars - 6));
  for (auto& w : words) w = rng.next_u64();
  return TruthTable::from_words(vars, words);
}

// The definition of remap, one output bit at a time: the oracle for the
// word-level kernel.
bool remap_bit(const TruthTable& f, std::span<const int> var_map, std::uint32_t out) {
  std::uint32_t in = 0;
  for (int v = 0; v < f.num_vars(); ++v) {
    if ((out >> var_map[static_cast<std::size_t>(v)]) & 1) in |= std::uint32_t{1} << v;
  }
  return f.bit(in);
}

TEST(TruthTable, RemapMatchesBitwiseDefinition) {
  Rng rng(2406);
  for (int n = 0; n <= TruthTable::kMaxVars; ++n) {
    for (int wide = n; wide <= TruthTable::kMaxVars; ++wide) {
      for (int trial = 0; trial < 3; ++trial) {
        const TruthTable f = random_words(rng, n);
        // A random injective map: the first n entries of a shuffled 0..wide-1.
        std::vector<int> targets(static_cast<std::size_t>(wide));
        for (int i = 0; i < wide; ++i) targets[static_cast<std::size_t>(i)] = i;
        for (int i = wide - 1; i > 0; --i) {
          std::swap(targets[static_cast<std::size_t>(i)],
                    targets[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
        }
        const std::span<const int> var_map(targets.data(), static_cast<std::size_t>(n));
        const TruthTable g = f.remap(wide, var_map);
        ASSERT_EQ(g.num_vars(), wide);
        const bool exhaustive = wide <= 12;
        const std::uint32_t checks = exhaustive ? static_cast<std::uint32_t>(g.num_bits()) : 4096;
        for (std::uint32_t i = 0; i < checks; ++i) {
          const std::uint32_t out =
              exhaustive ? i : static_cast<std::uint32_t>(rng.next_below(g.num_bits()));
          ASSERT_EQ(g.bit(out), remap_bit(f, var_map, out))
              << "n=" << n << " wide=" << wide << " trial=" << trial << " out=" << out;
        }
        // Bits past 2^wide stay clear (mask_tail).
        if (wide < 6) {
          EXPECT_EQ(g.word(0) >> g.num_bits(), 0u);
        }
      }
    }
  }
}

TEST(TruthTable, RemapRejectsDuplicateTargets) {
  const TruthTable f = TruthTable::var(3, 0) & TruthTable::var(3, 1);
  const int dup[3] = {0, 2, 2};
  EXPECT_THROW((void)f.remap(3, dup), Error);
  const int out_of_range[3] = {0, 1, 3};
  EXPECT_THROW((void)f.remap(3, out_of_range), Error);
}

TEST(TruthTable, DropVarInvertsAWideningRemap) {
  Rng rng(5);
  for (int n = 1; n <= 10; ++n) {
    for (int var = 0; var < n; ++var) {
      // Random over the other variables, independent of var.
      const TruthTable g = random_words(rng, n - 1);
      std::vector<int> lift;
      for (int v = 0; v < n; ++v) {
        if (v != var) lift.push_back(v);
      }
      const TruthTable f = g.remap(n, lift);
      EXPECT_FALSE(f.depends_on(var));
      EXPECT_EQ(f.drop_var(var), g) << "n=" << n << " var=" << var;
    }
  }
}

TEST(TruthTable, MuxSelectsOnTheVariable) {
  Rng rng(9);
  for (int n : {1, 4, 6, 7, 10}) {
    const TruthTable lo = random_words(rng, n);
    const TruthTable hi = random_words(rng, n);
    for (int v = 0; v < n; ++v) {
      const TruthTable x = TruthTable::var(n, v);
      EXPECT_EQ(TruthTable::mux(v, lo, hi), (~x & lo) | (x & hi)) << "n=" << n << " v=" << v;
    }
  }
}

TEST(TruthTable, ComposeAppliesInnerFunctions) {
  // g(u, v) = u AND v; u = x0 XOR x1, v = x2 => overall (x0^x1) & x2.
  const TruthTable g = tt_and(2);
  const TruthTable u = TruthTable::var(3, 0) ^ TruthTable::var(3, 1);
  const TruthTable v = TruthTable::var(3, 2);
  const TruthTable inputs[2] = {u, v};
  EXPECT_EQ(compose(g, inputs), u & v);
}

TEST(TruthTable, BinaryStringRoundTrip) {
  const TruthTable f = TruthTable::from_binary_string(2, "0110");  // XOR
  EXPECT_EQ(f, tt_xor(2));
  EXPECT_THROW((void)TruthTable::from_binary_string(2, "011"), Error);
  EXPECT_THROW((void)TruthTable::from_binary_string(2, "012x"), Error);
}

TEST(TruthTable, HashDiffersAcrossFunctions) {
  EXPECT_NE(tt_and(3).hash(), tt_or(3).hash());
  EXPECT_NE(tt_and(3).hash(), tt_and(4).hash());
  EXPECT_EQ(tt_xor(5).hash(), tt_xor(5).hash());
}

TEST(TruthTable, GateLibraryBasics) {
  EXPECT_EQ(tt_mux().bit(0b000u), false);  // s=0 -> a
  EXPECT_EQ(tt_mux().bit(0b010u), true);   // s=0, a=1
  EXPECT_EQ(tt_mux().bit(0b001u), false);  // s=1 -> b=0
  EXPECT_EQ(tt_mux().bit(0b101u), true);   // s=1, b=1
  EXPECT_EQ(tt_maj3().count_ones(), 4u);
  EXPECT_EQ(tt_nand(2), ~tt_and(2));
  EXPECT_EQ(tt_xnor(3), ~tt_xor(3));
}

TEST(TruthTable, ArityBoundsEnforced) {
  EXPECT_THROW((void)TruthTable::constant(17, false), Error);
  EXPECT_THROW((void)TruthTable::var(3, 3), Error);
}

}  // namespace
}  // namespace turbosyn
