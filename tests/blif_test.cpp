#include "netlist/blif.hpp"

#include <gtest/gtest.h>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "oracle.hpp"
#include "sim/simulator.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"

namespace turbosyn {
namespace {

TEST(BlifReader, ParsesCombinationalNames) {
  const Circuit c = read_blif_string(R"(.model and2
.inputs a b
.outputs o
.names a b o
11 1
.end
)");
  EXPECT_EQ(c.num_pis(), 2);
  EXPECT_EQ(c.num_pos(), 1);
  EXPECT_EQ(c.num_gates(), 1);
  EXPECT_EQ(c.num_ffs(), 0);
  const NodeId g = c.find("o");
  ASSERT_NE(g, kNoNode);
  EXPECT_TRUE(c.function(g).bit(0b11));
  EXPECT_FALSE(c.function(g).bit(0b01));
}

TEST(BlifReader, DontCaresAndZeroPolarity) {
  // o = NOT(a AND b) via 0-polarity cover.
  const Circuit c = read_blif_string(R"(.model nand
.inputs a b
.outputs o
.names a b o
11 0
.end
)");
  const NodeId g = c.find("o");
  EXPECT_FALSE(c.function(g).bit(0b11));
  EXPECT_TRUE(c.function(g).bit(0b10));

  const Circuit d = read_blif_string(R"(.model dc
.inputs a b c
.outputs o
.names a b c o
1-1 1
.end
)");
  const NodeId h = d.find("o");
  EXPECT_TRUE(d.function(h).bit(0b101));
  EXPECT_TRUE(d.function(h).bit(0b111));
  EXPECT_FALSE(d.function(h).bit(0b001));
}

TEST(BlifReader, LatchChainsBecomeEdgeWeights) {
  const Circuit c = read_blif_string(R"(.model chain
.inputs a
.outputs o
.latch g q1 0
.latch q1 q2 0
.names a g
1 1
.names q2 o
1 1
.end
)");
  // One consumer of the two-deep chain: 2 FF bits (raw == shared here).
  EXPECT_EQ(c.num_ffs(), 2);
  EXPECT_EQ(c.num_ffs_shared(), 2);
  const NodeId o = c.find("o");
  const auto& e = c.edge(c.fanin_edges(o)[0]);
  EXPECT_EQ(e.from, c.find("g"));
  EXPECT_EQ(e.weight, 2);
}

TEST(BlifReader, SequentialLoopThroughLatch) {
  // Toggle flip-flop: n = NOT q, q = latch(n) — a cycle, legal because the
  // latch breaks it.
  const Circuit c = read_blif_string(R"(.model toggle
.inputs en
.outputs q
.latch n q 0
.names en q n
10 1
01 1
.end
)");
  // q feeds both the gate and the PO: 2 raw FF bits on edges, 1 shared.
  EXPECT_EQ(c.num_ffs(), 2);
  EXPECT_EQ(c.num_ffs_shared(), 1);
  EXPECT_EQ(compute_stats(c).sccs_with_cycle, 1);
}

TEST(BlifReader, ConstantFunctions) {
  const Circuit c = read_blif_string(R"(.model consts
.inputs a
.outputs o1 o0
.names k1
1
.names k0
.names a k1 o1
11 1
.names a k0 o0
10 1
.end
)");
  const NodeId k1 = c.find("k1");
  const NodeId k0 = c.find("k0");
  EXPECT_TRUE(c.function(k1).bit(0));
  EXPECT_FALSE(c.function(k0).bit(0));
}

TEST(BlifReader, RejectsMalformedInput) {
  EXPECT_THROW((void)read_blif_string(".model x\n.inputs a\n.outputs o\n.end\n"), Error);
  EXPECT_THROW((void)read_blif_string(R"(.model x
.inputs a
.outputs o
.names a o
11 1
.end
)"),
               Error);  // cover row wider than the input list
  EXPECT_THROW((void)read_blif_string(R"(.model x
.inputs a
.outputs o
.names a o
1 1
.names a o
0 1
.end
)"),
               Error);  // o driven twice
  EXPECT_THROW((void)read_blif_string(R"(.model x
.inputs a
.outputs o
.latch o o 0
.end
)"),
               Error);  // latch loop without combinational driver
}

TEST(BlifReader, CommentsAndContinuations) {
  const Circuit c = read_blif_string(R"(.model cc  # trailing comment
# full-line comment
.inputs a \
b
.outputs o
.names a b o
11 1
.end
)");
  EXPECT_EQ(c.num_pis(), 2);
}

/// Both readers on `text`: they must agree on everything, and the verdict
/// must be `accepted`. Returns read_blif's diagnostic ("" if accepted).
std::string expect_matches_reference(const std::string& text, bool accepted) {
  EXPECT_EQ(oracle::blif_reader_disagreement(text), "") << text;
  try {
    (void)read_blif_string(text);
  } catch (const Error& e) {
    EXPECT_FALSE(accepted) << oracle::diagnostic(e);
    return oracle::diagnostic(e);
  }
  EXPECT_TRUE(accepted) << text;
  return {};
}

const char* const kAnd2 = ".model a\n.inputs a b\n.outputs o\n.names a b o\n11 1\n.end\n";

TEST(BlifReader, MatchesReferenceOnWorkloadInputs) {
  for (const std::string& text :
       {counter3_blif(), pattern_fsm_blif(), traffic_light_blif(), gray_counter_blif()}) {
    expect_matches_reference(text, true);
  }
  for (const auto& spec : tiny_suite()) {
    expect_matches_reference(write_blif_string(generate_fsm_circuit(spec)), true);
  }
  for (const auto& spec : table1_suite()) {
    expect_matches_reference(write_blif_string(generate_fsm_circuit(spec)), true);
  }
}

TEST(BlifReader, CrlfLineEndingsMatchReference) {
  std::string crlf;
  for (const char ch : std::string(kAnd2)) {
    if (ch == '\n') crlf += '\r';
    crlf += ch;
  }
  expect_matches_reference(crlf, true);
  // A '\' before "\r\n" is not the last character: no continuation.
  expect_matches_reference(".model a\r\n.inputs a \\\r\nb\r\n.end\r\n", false);
}

TEST(BlifReader, MissingTrailingNewlineMatchesReference) {
  const std::string text = kAnd2;
  expect_matches_reference(text.substr(0, text.size() - 1), true);
  expect_matches_reference(".model a\n.inputs a\n.outputs a", true);
}

TEST(BlifReader, ContinuationEdgesMatchReference) {
  // A continuation on the last line dangles, with or without a newline.
  EXPECT_NE(expect_matches_reference(".model a\n.inputs a \\\n", false)
                .find("<blif>:2: dangling line continuation"),
            std::string::npos);
  expect_matches_reference(".model a\n.inputs a \\", false);
  // A comment after '\' leaves the '\' a token of its own.
  expect_matches_reference(".model a\n.inputs a \\ # note\nb\n.outputs a\n.end\n", false);
  // A comment cut right at the '\' still continues.
  expect_matches_reference(".model a\n.inputs a \\# note\nb\n.outputs a b\n.end\n", true);
  // The '\' becomes a space: "a\" then "b" are two inputs, not "ab".
  expect_matches_reference(".model a\n.inputs a\\\nb\n.outputs ab\n.end\n", false);
  // Joined lines report at the line they started on.
  expect_matches_reference(".model a\n.inputs a \\\n b\n.names a \\\n b \\\n o\n1- 1\n"
                           ".outputs o\n.bogus x \\\n y\n.end\n",
                           false);
}

TEST(BlifReader, WideCoversMatchReference) {
  Rng rng(2024);
  for (int arity = 7; arity <= 16; ++arity) {
    for (const char polarity : {'1', '0'}) {
      const int rows = static_cast<int>(rng.next_in(1, 12));
      expect_matches_reference(oracle::random_cover_blif(rng, arity, rows, polarity), true);
    }
  }
}

TEST(BlifReader, EmptyCoverAndTrailingGarbageMatchReference) {
  expect_matches_reference(".model a\n.inputs a b\n.outputs o\n.names a b o\n.end\n", true);
  EXPECT_NE(expect_matches_reference(std::string(kAnd2) + "\n# fine\nleft over\n", false)
                .find("<blif>:9: trailing garbage after .end"),
            std::string::npos);
}

TEST(BlifReader, OutputNamingAnEarlierPoMatchesReference) {
  // "$po:a" is the internal name of the first output's PO node: the second
  // output resolves to that PO, which cannot drive anything.
  expect_matches_reference(".model a\n.inputs a\n.outputs a $po:a\n.end\n", false);
}

TEST(BlifReader, MoreThanSixteenInputsRejectedLikeReference) {
  Rng rng(7);
  const std::string diag =
      expect_matches_reference(oracle::random_cover_blif(rng, 17, 3, '1'), false);
  EXPECT_NE(diag.find("<blif>:4: .names 'f' has 17 inputs (max 16)"), std::string::npos) << diag;
}

TEST(BlifRoundTrip, SamplesSimulateIdentically) {
  for (const std::string& text : {counter3_blif(), pattern_fsm_blif()}) {
    const Circuit original = read_blif_string(text);
    const Circuit reparsed = read_blif_string(write_blif_string(original));
    Rng rng(47);
    const auto stimulus = random_stimulus(rng, original.num_pis(), 128);
    EXPECT_EQ(simulate_sequence(original, stimulus), simulate_sequence(reparsed, stimulus));
  }
}

TEST(BlifRoundTrip, GeneratedCircuitsSurviveExactly) {
  for (const auto& spec : tiny_suite()) {
    const Circuit original = generate_fsm_circuit(spec);
    const Circuit reparsed = read_blif_string(write_blif_string(original));
    EXPECT_EQ(reparsed.num_pis(), original.num_pis()) << spec.name;
    EXPECT_EQ(reparsed.num_pos(), original.num_pos()) << spec.name;
    EXPECT_EQ(reparsed.num_ffs(), original.num_ffs()) << spec.name;
    Rng rng(spec.seed);
    const auto stimulus = random_stimulus(rng, original.num_pis(), 96);
    EXPECT_EQ(simulate_sequence(original, stimulus), simulate_sequence(reparsed, stimulus))
        << spec.name;
  }
}

TEST(BlifWriter, PoNamePrefixIsStripped) {
  const Circuit c = read_blif_string(counter3_blif());
  const std::string text = write_blif_string(c);
  EXPECT_EQ(text.find("$po:"), std::string::npos);
  EXPECT_NE(text.find(".outputs q0 q1 q2"), std::string::npos);
}

}  // namespace
}  // namespace turbosyn
