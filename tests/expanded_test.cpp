// Dedicated coverage of the expanded circuit E_v and its partial flow
// network: register-count bookkeeping, mandatory/allowed classification,
// frontier handling, node budgets, the low-cost (sharing-aware) cut rule and
// the flow-free certificate checks (separates for a cut, refuted_by for the
// flow paths of a failed test), and the premise of the label engine's
// network records (a build is fixed by its non-root copies' allowed flags).

#include "core/expanded.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "core/labeling.hpp"
#include "netlist/gates.hpp"
#include "oracle.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"

namespace turbosyn {
namespace {

std::vector<int> base_labels(const Circuit& c) {
  std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 1);
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    if (c.is_source(v)) labels[static_cast<std::size_t>(v)] = 0;
  }
  return labels;
}

TEST(Expanded, TrivialFaninCutAtHeightLPlusOne) {
  // With all fanins at eff+1 <= H, the fanin cut is found immediately.
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId b = c.add_pi("b");
  const Circuit::FaninSpec f[2] = {{a, 0}, {b, 1}};
  const NodeId g = c.add_gate("g", tt_and(2), f);
  c.add_po("$po:o", {g, 0});
  const auto labels = base_labels(c);
  ExpandedNetwork net(c, labels, 1, g, 1, ExpandedOptions{});
  const auto cut = net.find_cut(2);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->size(), 2u);
  EXPECT_EQ((*cut)[0], (SeqCutNode{a, 0}));
  EXPECT_EQ((*cut)[1], (SeqCutNode{b, 1}));
  EXPECT_EQ(net.cut_function(*cut), tt_and(2));
}

TEST(Expanded, MandatoryPiBlocksTheCut) {
  // Height limit below every PI copy's requirement: no cut exists.
  Circuit c;
  const NodeId a = c.add_pi("a");
  const Circuit::FaninSpec f[1] = {{a, 0}};
  const NodeId g = c.add_gate("g", tt_not(), f);
  c.add_po("$po:o", {g, 0});
  const auto labels = base_labels(c);
  // H = 0: (a,0) needs eff+1 = 1 <= 0 -> mandatory -> uncuttable path.
  ExpandedNetwork net(c, labels, 1, g, 0, ExpandedOptions{});
  EXPECT_FALSE(net.find_cut(4).has_value());
}

TEST(Expanded, RegisteredPiCopyBecomesAllowed) {
  // Same shape but the edge carries a register: eff(a,1) = -phi, so the copy
  // is allowed even at H = 0.
  Circuit c;
  const NodeId a = c.add_pi("a");
  const Circuit::FaninSpec f[1] = {{a, 1}};
  const NodeId g = c.add_gate("g", tt_not(), f);
  c.add_po("$po:o", {g, 0});
  const auto labels = base_labels(c);
  ExpandedNetwork net(c, labels, 1, g, 0, ExpandedOptions{});
  const auto cut = net.find_cut(4);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ((*cut)[0], (SeqCutNode{a, 1}));
}

TEST(Expanded, LoopUnrollsWithIncreasingRegisterCounts) {
  const Circuit c = figure1_circuit();
  const NodeId g2 = c.find("g2");
  std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 2);
  for (const NodeId pi : c.pis()) labels[static_cast<std::size_t>(pi)] = 0;
  // At H = 2 the zero-register copy of g1 (eff+1 = 3) is mandatory, so any
  // cut through the loop uses copies behind at least one register.
  ExpandedNetwork net(c, labels, 1, g2, 2, ExpandedOptions{});
  EXPECT_GE(net.num_expanded_nodes(), 6);
  const auto cut = net.find_cut(15);
  ASSERT_TRUE(cut.has_value());
  for (const SeqCutNode& n : *cut) {
    if (n.node == g2 || n.node == c.find("g1")) EXPECT_GE(n.w, 1);
  }
}

TEST(Expanded, NodeBudgetMakesQueryUnviable) {
  const Circuit c = figure1_circuit();
  const NodeId g2 = c.find("g2");
  std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 2);
  for (const NodeId pi : c.pis()) labels[static_cast<std::size_t>(pi)] = 0;
  ExpandedOptions opt;
  opt.node_budget = 2;
  ExpandedNetwork net(c, labels, 1, g2, 5, opt);
  EXPECT_FALSE(net.viable());
  EXPECT_FALSE(net.find_cut(15).has_value());
}

TEST(Expanded, LowCostCutPrefersSharedSignals) {
  // Diamond: root over u (from a,b) and v (from a,b): min cuts are {u,v} and
  // {a,b}; marking {a,b} as shared must steer the choice there.
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId b = c.add_pi("b");
  const Circuit::FaninSpec f[2] = {{a, 0}, {b, 0}};
  const NodeId u = c.add_gate("u", tt_and(2), f);
  const NodeId v = c.add_gate("v", tt_or(2), f);
  const Circuit::FaninSpec fr[2] = {{u, 0}, {v, 0}};
  const NodeId r = c.add_gate("r", tt_xor(2), fr);
  c.add_po("$po:o", {r, 0});
  std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 0);
  labels[static_cast<std::size_t>(u)] = 1;
  labels[static_cast<std::size_t>(v)] = 1;
  labels[static_cast<std::size_t>(r)] = 2;

  const auto prefer_pis = [&](const SeqCutNode& n) { return c.is_pi(n.node); };
  ExpandedNetwork net(c, labels, 1, r, 2, ExpandedOptions{});
  const auto cut = net.find_low_cost_cut(2, prefer_pis);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(*cut, (std::vector<SeqCutNode>{{a, 0}, {b, 0}}));

  const auto prefer_gates = [&](const SeqCutNode& n) { return c.is_gate(n.node); };
  ExpandedNetwork net2(c, labels, 1, r, 2, ExpandedOptions{});
  const auto cut2 = net2.find_low_cost_cut(2, prefer_gates);
  ASSERT_TRUE(cut2.has_value());
  EXPECT_EQ(*cut2, (std::vector<SeqCutNode>{{u, 0}, {v, 0}}));
}

TEST(Expanded, LowCostNeverExceedsMinCutSize) {
  const Circuit c = lfsr_circuit(6, std::vector<int>{2, 4});
  std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 1);
  for (const NodeId pi : c.pis()) labels[static_cast<std::size_t>(pi)] = 0;
  for (NodeId g = 0; g < c.num_nodes(); ++g) {
    if (!c.is_gate(g) || c.fanin_edges(g).empty()) continue;
    ExpandedNetwork plain(c, labels, 2, g, 1, ExpandedOptions{});
    const auto min_cut = plain.find_cut(6);
    ExpandedNetwork weighted(c, labels, 2, g, 1, ExpandedOptions{});
    const auto lc = weighted.find_low_cost_cut(6, [](const SeqCutNode&) { return false; });
    ASSERT_EQ(min_cut.has_value(), lc.has_value());
    if (min_cut) EXPECT_EQ(min_cut->size(), lc->size());
  }
}

TEST(Expanded, CutFunctionComposesAcrossRegisters) {
  // Two buffers with a register between them: the cut {(a,1)} computes BUF.
  Circuit c;
  const NodeId a = c.add_pi("a");
  const Circuit::FaninSpec f1[1] = {{a, 1}};
  const NodeId g1 = c.add_gate("g1", tt_not(), f1);
  const Circuit::FaninSpec f2[1] = {{g1, 0}};
  const NodeId g2 = c.add_gate("g2", tt_not(), f2);
  c.add_po("$po:o", {g2, 0});
  const auto labels = base_labels(c);
  ExpandedNetwork net(c, labels, 1, g2, 2, ExpandedOptions{});
  const auto cut = net.find_cut(2);
  ASSERT_TRUE(cut.has_value());
  if (cut->size() == 1 && (*cut)[0].node == a) {
    EXPECT_EQ(net.cut_function(*cut), tt_buf());  // NOT of NOT
  }
}

TEST(Expanded, CutFunctionMatchesReferenceOnWideCuts) {
  // Min-cuts of up to 15 inputs (up to 512-word tables) on random sequential
  // circuits, reusing one network across queries as the label engine does.
  // Each function is checked against the circuit-walking composition.
  Rng rng(77);
  int checked = 0;
  int multi_word = 0;
  ExpandedNetwork net;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    BenchmarkSpec spec;
    spec.name = "cf" + std::to_string(seed);
    spec.seed = seed;
    spec.num_pis = 6;
    spec.num_pos = 3;
    spec.num_gates = 40 + static_cast<int>(seed % 4) * 10;
    spec.feedback = 0.12;
    spec.max_fanin = 4;
    const Circuit c = generate_fsm_circuit(spec);
    for (int round = 0; round < 3; ++round) {
      const int phi = 1 + static_cast<int>(rng.next_below(2));
      std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 0);
      for (NodeId v = 0; v < c.num_nodes(); ++v) {
        if (c.is_gate(v) && !c.fanin_edges(v).empty()) {
          labels[static_cast<std::size_t>(v)] = static_cast<int>(rng.next_in(1, 6));
        }
      }
      for (NodeId v = 0; v < c.num_nodes(); ++v) {
        if (!c.is_gate(v) || c.fanin_edges(v).empty()) continue;
        const int height = static_cast<int>(rng.next_in(0, 4));
        net.build(c, labels, phi, v, height, ExpandedOptions{});
        const auto cut = net.find_cut(15);
        if (!cut) continue;
        ++checked;
        if (cut->size() > 6) ++multi_word;
        ASSERT_EQ(net.cut_function(*cut), oracle::cut_function_reference(c, v, *cut))
            << spec.name << " " << c.name(v) << " cut of " << cut->size();
      }
    }
  }
  EXPECT_GT(checked, 500);
  EXPECT_GT(multi_word, 50);
}

TEST(Expanded, SeparatesRejectsMutatedCertificates) {
  const Circuit c = figure1_circuit();
  const NodeId g2 = c.find("g2");
  std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 2);
  for (const NodeId pi : c.pis()) labels[static_cast<std::size_t>(pi)] = 0;
  ExpandedNetwork net(c, labels, 1, g2, 2, ExpandedOptions{});
  const auto found = net.find_cut(15);
  ASSERT_TRUE(found.has_value());
  const std::vector<SeqCutNode> cut = *found;
  ASSERT_EQ(cut.size(), 5u);  // {g2^1, a, b, c, d}
  EXPECT_TRUE(net.separates(cut));

  // A dropped member leaves its source path uncovered.
  for (std::size_t i = 0; i < cut.size(); ++i) {
    std::vector<SeqCutNode> dropped = cut;
    dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_FALSE(net.separates(dropped)) << "dropped member " << i;
  }

  // A member at the wrong register count is another copy (or none at all).
  for (std::size_t i = 0; i < cut.size(); ++i) {
    std::vector<SeqCutNode> shifted = cut;
    ++shifted[i].w;
    EXPECT_FALSE(net.separates(shifted)) << "member " << i << " at w + 1";
  }

  // The loop copy g2^1 stops being allowed once g2's label rises past the
  // height limit: the same cut is no certificate in the rebuilt network.
  const auto loop_member =
      std::find_if(cut.begin(), cut.end(), [&](const SeqCutNode& n) { return n.node == g2; });
  ASSERT_NE(loop_member, cut.end());
  std::vector<int> raised = labels;
  raised[static_cast<std::size_t>(g2)] = 4;
  net.build(c, raised, 1, g2, 2, ExpandedOptions{});
  EXPECT_FALSE(net.separates(cut));

  // An unviable (node-budget) network certifies nothing.
  ExpandedOptions tiny_budget;
  tiny_budget.node_budget = 2;
  net.build(c, labels, 1, g2, 2, tiny_budget);
  ASSERT_FALSE(net.viable());
  EXPECT_FALSE(net.separates(cut));
}

TEST(Expanded, SeparatesOldCutImpliesFindCutAfterLabelsRise) {
  // The label engine's use of separates: a gate's cut from an earlier sweep,
  // checked against the network rebuilt after labels rose. Whenever the old
  // cut still separates, the flow must agree that a K-cut exists.
  constexpr int kK = 4;
  Rng rng(2024);
  int accepted = 0;
  int rejected = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    BenchmarkSpec spec;
    spec.name = "sep" + std::to_string(seed);
    spec.seed = seed;
    spec.num_pis = 3;
    spec.num_pos = 2;
    spec.num_gates = 20 + static_cast<int>(seed % 5) * 6;
    spec.feedback = 0.15;
    spec.max_fanin = 3;
    const Circuit c = generate_fsm_circuit(spec);
    const int phi = 1 + static_cast<int>(seed % 3);
    std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 0);
    for (NodeId v = 0; v < c.num_nodes(); ++v) {
      if (c.is_gate(v) && !c.fanin_edges(v).empty()) {
        labels[static_cast<std::size_t>(v)] = static_cast<int>(rng.next_in(1, 4));
      }
    }
    ExpandedNetwork net;
    for (NodeId v = 0; v < c.num_nodes(); ++v) {
      if (!c.is_gate(v) || c.fanin_edges(v).empty()) continue;
      const int height = static_cast<int>(rng.next_in(1, 5));
      net.build(c, labels, phi, v, height, ExpandedOptions{});
      const auto old_cut = net.find_cut(kK);
      if (!old_cut) continue;
      ASSERT_TRUE(net.separates(*old_cut)) << spec.name << " " << c.name(v);

      std::vector<int> risen = labels;
      for (NodeId u = 0; u < c.num_nodes(); ++u) {
        if (risen[static_cast<std::size_t>(u)] > 0 && rng.next_bool(0.3)) {
          risen[static_cast<std::size_t>(u)] += static_cast<int>(rng.next_in(1, 2));
        }
      }
      const int new_height = height + static_cast<int>(rng.next_in(0, 1));
      net.build(c, risen, phi, v, new_height, ExpandedOptions{});
      if (net.separates(*old_cut)) {
        ++accepted;
        EXPECT_TRUE(net.find_cut(kK).has_value()) << spec.name << " " << c.name(v);
      } else {
        ++rejected;
      }
    }
  }
  // Both verdicts occur, so neither branch is vacuous.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

/// A FlowPaths certificate as one vector per path, editable by the
/// mutation tests.
using PathList = std::vector<std::vector<SeqCutNode>>;

PathList path_list(FlowPaths fp) {
  PathList list;
  std::size_t begin = 0;
  for (const std::int32_t end : fp.ends) {
    list.emplace_back(fp.copies.begin() + static_cast<std::ptrdiff_t>(begin),
                      fp.copies.begin() + end);
    begin = static_cast<std::size_t>(end);
  }
  return list;
}

bool refutes(ExpandedNetwork& net, const PathList& list, int size_limit) {
  std::vector<SeqCutNode> copies;
  std::vector<std::int32_t> ends;
  for (const auto& path : list) {
    copies.insert(copies.end(), path.begin(), path.end());
    ends.push_back(static_cast<std::int32_t>(copies.size()));
  }
  return net.refuted_by(FlowPaths{copies, ends}, size_limit);
}

TEST(Expanded, RefutedByRejectsMutatedCertificates) {
  // Figure 1 at g2, H = 2: the minimum cut is {g2^1, a, b, c, d}, so no
  // 4-cut exists. g1^0 is mandatory (eff + 1 = 3 > 2) and may carry several
  // paths; every other copy below is allowed. g1^1 lies past the expansion
  // frontier (extra_levels = 2) and is fed by the source.
  const Circuit c = figure1_circuit();
  const NodeId a = c.find("a");
  const NodeId b = c.find("b");
  const NodeId cc = c.find("c");
  const NodeId d = c.find("d");
  const NodeId g1 = c.find("g1");
  const NodeId g2 = c.find("g2");
  std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 2);
  for (const NodeId pi : c.pis()) labels[static_cast<std::size_t>(pi)] = 0;
  ExpandedNetwork net(c, labels, 1, g2, 2, ExpandedOptions{});
  const SeqCutNode root{g2, 0};
  const PathList certificate{
      {root, {cc, 0}},
      {root, {d, 0}},
      {root, {g1, 0}, {a, 0}},
      {root, {g1, 0}, {b, 0}},
      {root, {g1, 0}, {g2, 1}, {g1, 1}},
  };
  EXPECT_TRUE(refutes(net, certificate, 4));
  EXPECT_FALSE(net.find_cut(4).has_value());

  // The flow's own paths are a certificate of the same kind.
  const PathList from_flow = path_list(net.flow_paths());
  EXPECT_EQ(from_flow.size(), 5u);
  EXPECT_TRUE(refutes(net, from_flow, 4));

  PathList shared = certificate;  // c^0, an allowed copy, on two paths
  shared[1] = shared[0];
  EXPECT_FALSE(refutes(net, shared, 4));

  PathList missing = certificate;  // g1^5 is no copy of this network
  missing[4].back() = SeqCutNode{g1, 5};
  EXPECT_FALSE(refutes(net, missing, 4));

  PathList non_edge = certificate;  // a^0 is a copy, but no fanin of the root
  non_edge[2] = {root, {a, 0}};
  EXPECT_FALSE(refutes(net, non_edge, 4));

  PathList wrong_root = certificate;  // g2^1 is a copy, but not the root
  wrong_root[0].front() = SeqCutNode{g2, 1};
  EXPECT_FALSE(refutes(net, wrong_root, 4));

  PathList fewer = certificate;  // four paths bound the flow by nothing above 4
  fewer.pop_back();
  EXPECT_FALSE(refutes(net, fewer, 4));
  EXPECT_TRUE(refutes(net, fewer, 3));

  // One more expansion level expands g1^1: the fifth path no longer ends at
  // the source, until it is extended to one of g1^1's fanins.
  ExpandedOptions deeper;
  deeper.extra_levels = 3;
  net.build(c, labels, 1, g2, 2, deeper);
  EXPECT_FALSE(refutes(net, certificate, 4));
  PathList extended = certificate;
  extended[4].push_back(SeqCutNode{a, 1});
  EXPECT_TRUE(refutes(net, extended, 4));

  // An unviable (node-budget) network refutes nothing.
  ExpandedOptions tiny_budget;
  tiny_budget.node_budget = 2;
  net.build(c, labels, 1, g2, 2, tiny_budget);
  ASSERT_FALSE(net.viable());
  EXPECT_FALSE(refutes(net, certificate, 4));
}

// refuted_by() accepts each stored path that is still a flow, and the paths
// it accepts seed the next cut test on the same build. On Figure 1 every
// mutated certificate above keeps four of its five paths: the 4-cut test
// then needs one augmenting path to fail, its flow paths refute again, and
// the Cmax test resumes from those five units to the cold build's cut.
TEST(Expanded, AcceptedPathsSeedTheNextCutTest) {
  const Circuit c = figure1_circuit();
  const NodeId a = c.find("a");
  const NodeId b = c.find("b");
  const NodeId cc = c.find("c");
  const NodeId d = c.find("d");
  const NodeId g1 = c.find("g1");
  const NodeId g2 = c.find("g2");
  std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 2);
  for (const NodeId pi : c.pis()) labels[static_cast<std::size_t>(pi)] = 0;
  constexpr int kCmax = 15;
  ExpandedNetwork cold(c, labels, 1, g2, 2, ExpandedOptions{});
  const auto cold_cut = cold.find_cut(kCmax);
  ASSERT_TRUE(cold_cut.has_value());
  EXPECT_EQ(cold_cut->size(), 5u);
  EXPECT_EQ(cold.augmentations(), 5);

  const SeqCutNode root{g2, 0};
  const PathList certificate{
      {root, {cc, 0}},
      {root, {d, 0}},
      {root, {g1, 0}, {a, 0}},
      {root, {g1, 0}, {b, 0}},
      {root, {g1, 0}, {g2, 1}, {g1, 1}},
  };
  std::vector<PathList> mutated(5, certificate);
  mutated[0][1] = mutated[0][0];                   // c^0 on two paths
  mutated[1][4].back() = SeqCutNode{g1, 5};        // no copy of this network
  mutated[2][2] = {root, {a, 0}};                  // no fanin edge
  mutated[3][0].front() = SeqCutNode{g2, 1};       // not the root
  mutated[4].pop_back();                           // four paths
  ExpandedNetwork net;
  for (std::size_t i = 0; i < mutated.size(); ++i) {
    net.build(c, labels, 1, g2, 2, ExpandedOptions{});
    EXPECT_FALSE(refutes(net, mutated[i], 4)) << i;
    EXPECT_FALSE(net.find_cut(4).has_value()) << i;
    EXPECT_EQ(net.augmentations(), 1) << i;
    EXPECT_TRUE(refutes(net, path_list(net.flow_paths()), 4)) << i;
    EXPECT_EQ(net.find_cut(kCmax), cold_cut) << i;
    EXPECT_EQ(net.augmentations(), 0) << i;
  }

  // A path rejected after it reached an allowed copy leaves that copy free
  // for the paths after it.
  PathList detour = certificate;
  detour.insert(detour.begin(), {root, {cc, 0}, {a, 0}});  // c^0 has no fanins
  net.build(c, labels, 1, g2, 2, ExpandedOptions{});
  EXPECT_TRUE(refutes(net, detour, 4));

  // A refuted test leaves its K + 1 accepted paths as the Cmax test's start.
  net.build(c, labels, 1, g2, 2, ExpandedOptions{});
  EXPECT_TRUE(refutes(net, certificate, 4));
  EXPECT_EQ(net.find_cut(kCmax), cold_cut);
  EXPECT_EQ(net.augmentations(), 0);
  // A weighted (low-cost) test starts cold, and so does the next unit test.
  net.build(c, labels, 1, g2, 2, ExpandedOptions{});
  EXPECT_TRUE(refutes(net, certificate, 4));
  EXPECT_FALSE(net.find_low_cost_cut(4, [](const SeqCutNode&) { return true; }).has_value());
  EXPECT_EQ(net.find_cut(kCmax), cold_cut);
  EXPECT_EQ(net.augmentations(), 5);
}

TEST(Expanded, RefutationImpliesFindCutFails) {
  // The label engine's use of refuted_by: a gate's flow paths from an
  // earlier failed test, checked against the network rebuilt after labels
  // rose. Whenever they still refute, the flow must agree that no K-cut
  // exists.
  constexpr int kK = 3;
  constexpr int kCmax = 15;
  Rng rng(2025);
  int accepted = 0;
  int rejected = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    BenchmarkSpec spec;
    spec.name = "ref" + std::to_string(seed);
    spec.seed = seed;
    spec.num_pis = 3;
    spec.num_pos = 2;
    spec.num_gates = 20 + static_cast<int>(seed % 5) * 6;
    spec.feedback = 0.15;
    spec.max_fanin = 3;
    const Circuit c = generate_fsm_circuit(spec);
    const int phi = 1 + static_cast<int>(seed % 3);
    std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 0);
    for (NodeId v = 0; v < c.num_nodes(); ++v) {
      if (c.is_gate(v) && !c.fanin_edges(v).empty()) {
        labels[static_cast<std::size_t>(v)] = static_cast<int>(rng.next_in(1, 4));
      }
    }
    ExpandedNetwork net;
    for (NodeId v = 0; v < c.num_nodes(); ++v) {
      if (!c.is_gate(v) || c.fanin_edges(v).empty()) continue;
      const int height = static_cast<int>(rng.next_in(0, 3));
      net.build(c, labels, phi, v, height, ExpandedOptions{});
      if (!net.viable() || net.find_cut(kK).has_value()) continue;
      const PathList old_paths = path_list(net.flow_paths());
      ASSERT_EQ(old_paths.size(), static_cast<std::size_t>(kK + 1));
      ASSERT_TRUE(refutes(net, old_paths, kK)) << spec.name << " " << c.name(v);

      std::vector<int> risen = labels;
      for (NodeId u = 0; u < c.num_nodes(); ++u) {
        if (risen[static_cast<std::size_t>(u)] > 0 && rng.next_bool(0.3)) {
          risen[static_cast<std::size_t>(u)] += static_cast<int>(rng.next_in(1, 2));
        }
      }
      const int new_height = height + static_cast<int>(rng.next_in(0, 1));
      net.build(c, risen, phi, v, new_height, ExpandedOptions{});
      ExpandedNetwork cold(c, risen, phi, v, new_height, ExpandedOptions{});
      if (refutes(net, old_paths, kK)) {
        ++accepted;
        EXPECT_FALSE(net.find_cut(kK).has_value()) << spec.name << " " << c.name(v);
      } else {
        // The paths still valid seed the test: its verdict and cut are the
        // cold build's.
        ++rejected;
        EXPECT_EQ(net.find_cut(kK), cold.find_cut(kK)) << spec.name << " " << c.name(v);
        EXPECT_LE(net.augmentations(), cold.augmentations()) << spec.name << " " << c.name(v);
      }
      // Either way the wider test resumes to the cold build's cut.
      EXPECT_EQ(net.find_cut(kCmax), cold.find_cut(kCmax)) << spec.name << " " << c.name(v);
    }
  }
  // Both verdicts occur, so neither branch is vacuous.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Expanded, UnchangedNonRootFlagsGiveTheSameNetworkAndVerdict) {
  // The premise of a GateRecord's network: a build at other labels in which
  // every non-root copy of an earlier build keeps its allowed flag makes the
  // same copies, flags and K-cut verdict, whatever the root's own flag.
  // The record matches such labels, and a flip of any one non-root copy's
  // flag breaks the match. A network over the record's cap, or a failure
  // whose paths the record does not hold, is not recorded.
  constexpr int kK = 4;
  Rng rng(2026);
  int same_network = 0;
  int root_flips = 0;
  int single_flips = 0;
  int too_large = 0;
  int verdicts[2] = {0, 0};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    BenchmarkSpec spec;
    spec.name = "rec" + std::to_string(seed);
    spec.seed = seed;
    spec.num_pis = 3;
    spec.num_pos = 2;
    spec.num_gates = 20 + static_cast<int>(seed % 5) * 6;
    spec.feedback = 0.15;
    spec.max_fanin = 3;
    const Circuit c = generate_fsm_circuit(spec);
    const int phi = 1 + static_cast<int>(seed % 3);
    std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 0);
    for (NodeId v = 0; v < c.num_nodes(); ++v) {
      if (c.is_gate(v) && !c.fanin_edges(v).empty()) {
        labels[static_cast<std::size_t>(v)] = static_cast<int>(rng.next_in(1, 4));
      }
    }
    ExpandedNetwork first;
    ExpandedNetwork second;
    for (NodeId v = 0; v < c.num_nodes(); ++v) {
      if (!c.is_gate(v) || c.fanin_edges(v).empty()) continue;
      const std::string at = spec.name + " " + c.name(v);
      const int height = static_cast<int>(rng.next_in(1, 5));
      first.build(c, labels, phi, v, height, ExpandedOptions{});
      if (!first.viable()) continue;
      const std::vector<ExpandedNetwork::Copy> copies(first.copies().begin(),
                                                      first.copies().end());
      const auto cut = first.find_cut(kK);
      ++verdicts[cut ? 1 : 0];
      GateRecord record;
      if (cut) {
        record.keep_cut(*cut);
      } else {
        record.keep_paths(first.flow_paths(), kK);
      }
      record.keep_network(first, cut.has_value());
      if (copies.size() > GateRecord::kCopies + 1 || !(cut || record.paths())) {
        EXPECT_FALSE(record.matches(labels, phi, height)) << at;  // not recorded
        too_large += copies.size() > GateRecord::kCopies + 1 ? 1 : 0;
        continue;
      }
      ASSERT_TRUE(record.matches(labels, phi, height)) << at;
      EXPECT_EQ(record.verdict(), cut ? GateRecord::Verdict::kCut : GateRecord::Verdict::kNoCut)
          << at;

      // Per node of a non-root copy u^w, the labels that keep each such
      // copy's flag: l <= height - 1 + phi*w while allowed, above otherwise.
      const auto lowest = std::numeric_limits<std::int64_t>::min();
      const auto highest = std::numeric_limits<std::int64_t>::max();
      std::vector<std::pair<std::int64_t, std::int64_t>> keep(
          static_cast<std::size_t>(c.num_nodes()), {lowest, highest});
      for (std::size_t i = 1; i < copies.size(); ++i) {
        const SeqCutNode id = copies[i].id;
        const std::int64_t edge = height - 1 + std::int64_t{phi} * id.w;
        auto& [lo, hi] = keep[static_cast<std::size_t>(id.node)];
        if (copies[i].allowed) {
          hi = std::min(hi, edge);
        } else {
          lo = std::max(lo, edge + 1);
        }
      }
      // Other labels: every gate moves within its interval (or anywhere
      // when it has no copy), sources stay 0; the root keeps its flag first,
      // then flips it when its interval allows.
      for (const bool flip_root : {false, true}) {
        std::vector<int> moved = labels;
        for (NodeId u = 0; u < c.num_nodes(); ++u) {
          if (c.is_source(u) || c.is_po(u)) continue;
          auto [lo, hi] = keep[static_cast<std::size_t>(u)];
          const int now = labels[static_cast<std::size_t>(u)];
          if (u == v) {
            if (copies[0].allowed != flip_root) {
              hi = std::min<std::int64_t>(hi, height - 1);  // root allowed
            } else {
              lo = std::max<std::int64_t>(lo, height);  // root not allowed
            }
          }
          lo = std::max<std::int64_t>(lo, std::max(1, now - 2));
          hi = std::min<std::int64_t>(hi, now + 2);
          if (lo > hi) {
            if (u == v) moved[static_cast<std::size_t>(u)] = -1;  // no such root label
            continue;
          }
          moved[static_cast<std::size_t>(u)] = static_cast<int>(rng.next_in(lo, hi));
        }
        if (moved[static_cast<std::size_t>(v)] < 0) continue;
        second.build(c, moved, phi, v, height, ExpandedOptions{});
        const std::span<const ExpandedNetwork::Copy> rebuilt = second.copies();
        ASSERT_EQ(rebuilt.size(), copies.size()) << at;
        for (std::size_t i = 0; i < copies.size(); ++i) {
          EXPECT_EQ(rebuilt[i].id, copies[i].id) << at << " copy " << i;
          EXPECT_EQ(rebuilt[i].expanded, copies[i].expanded) << at << " copy " << i;
          if (i > 0) EXPECT_EQ(rebuilt[i].allowed, copies[i].allowed) << at << " copy " << i;
        }
        EXPECT_EQ(rebuilt[0].allowed != copies[0].allowed, flip_root) << at;
        EXPECT_EQ(second.find_cut(kK), cut) << at;
        EXPECT_TRUE(record.matches(moved, phi, height)) << at;
        ++(flip_root ? root_flips : same_network);
      }

      // Flipping one non-root copy's flag (its node's label crosses that
      // copy's edge; sources must stay 0) breaks the match.
      for (std::size_t i = 1; i < copies.size(); ++i) {
        const SeqCutNode id = copies[i].id;
        if (c.is_source(id.node)) continue;
        const std::int64_t edge = height - 1 + std::int64_t{phi} * id.w;
        const std::int64_t crossed = copies[i].allowed ? edge + 1 : edge;
        if (crossed < 1) continue;
        std::vector<int> flipped = labels;
        flipped[static_cast<std::size_t>(id.node)] = static_cast<int>(crossed);
        EXPECT_FALSE(record.matches(flipped, phi, height)) << at << " copy " << i;
        ++single_flips;
      }
    }
  }
  // Every branch occurs, so none is vacuous.
  EXPECT_GT(same_network, 0);
  EXPECT_GT(root_flips, 0);
  EXPECT_GT(single_flips, 0);
  EXPECT_GT(too_large, 0);
  EXPECT_GT(verdicts[0], 0);
  EXPECT_GT(verdicts[1], 0);
}

}  // namespace
}  // namespace turbosyn
