#include <gtest/gtest.h>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "mapping/cone_cut.hpp"
#include "mapping/flowmap.hpp"
#include "mapping/lut_network.hpp"
#include "mapping/seq_split.hpp"
#include "netlist/blif.hpp"
#include "netlist/gates.hpp"
#include "sim/cone.hpp"
#include "sim/simulator.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"

namespace turbosyn {
namespace {

/// pack_luts on the LUT list of `c`, built back into a Circuit; `merges`
/// (optional) receives pack_luts' merge count.
Circuit packed_circuit(const Circuit& c, int k, int* merges = nullptr) {
  LutNetwork net = LutNetwork::from_circuit(c);
  const int n = pack_luts(net, k);
  if (merges != nullptr) *merges = n;
  return net.to_circuit();
}

/// Random combinational K-bounded DAG for property tests.
Circuit random_dag(Rng& rng, int gates, int pis, int max_fanin) {
  Circuit c;
  std::vector<NodeId> pool;
  for (int i = 0; i < pis; ++i) pool.push_back(c.add_pi("i" + std::to_string(i)));
  NodeId last = pool[0];
  for (int i = 0; i < gates; ++i) {
    const int arity = static_cast<int>(rng.next_in(2, max_fanin));
    std::vector<Circuit::FaninSpec> fanins;
    std::vector<NodeId> chosen;
    for (int f = 0; f < arity; ++f) {
      NodeId pick;
      do {
        pick = pool[rng.next_below(pool.size())];
      } while (std::count(chosen.begin(), chosen.end(), pick) != 0);
      chosen.push_back(pick);
      fanins.push_back({pick, 0});
    }
    TruthTable func = TruthTable::constant(arity, false);
    for (std::uint32_t m = 0; m < func.num_bits(); ++m) {
      if (rng.next_bool()) func.set_bit(m, true);
    }
    last = c.add_gate("g" + std::to_string(i), func, fanins);
    pool.push_back(last);
  }
  c.add_po("$po:o", {last, 0});
  c.validate();
  return c;
}

// ---- min_height_cut ----

TEST(ConeCut, TrivialFaninCutWhenAllLabelsAllowed) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId b = c.add_pi("b");
  const Circuit::FaninSpec f[2] = {{a, 0}, {b, 0}};
  const NodeId g = c.add_gate("g", tt_and(2), f);
  c.add_po("$po:o", {g, 0});
  const std::vector<int> label(static_cast<std::size_t>(c.num_nodes()), 0);
  const auto cut = min_height_cut(c, g, label, 0, 4);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(*cut, (std::vector<NodeId>{a, b}));
}

TEST(ConeCut, ReconvergenceGivesSmallerCut) {
  // a feeds two gates which reconverge: min cut through {a, b} is 2 while the
  // fanin cut of the root is also 2 — deepen: diamond with single source.
  Circuit c;
  const NodeId a = c.add_pi("a");
  const Circuit::FaninSpec fu[1] = {{a, 0}};
  const NodeId u = c.add_gate("u", tt_not(), fu);
  const NodeId v = c.add_gate("v", tt_buf(), fu);
  const Circuit::FaninSpec fr[2] = {{u, 0}, {v, 0}};
  const NodeId r = c.add_gate("r", tt_and(2), fr);
  c.add_po("$po:o", {r, 0});
  const std::vector<int> label(static_cast<std::size_t>(c.num_nodes()), 0);
  const auto cut = min_height_cut(c, r, label, 0, 4);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(*cut, std::vector<NodeId>{a});  // the flow sees through u and v
}

TEST(ConeCut, HeightLimitExcludesHighLabels) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const Circuit::FaninSpec fu[1] = {{a, 0}};
  const NodeId u = c.add_gate("u", tt_not(), fu);
  const Circuit::FaninSpec fr[1] = {{u, 0}};
  const NodeId r = c.add_gate("r", tt_not(), fr);
  c.add_po("$po:o", {r, 0});
  std::vector<int> label(static_cast<std::size_t>(c.num_nodes()), 0);
  label[static_cast<std::size_t>(u)] = 1;
  // Height limit 0: u (label 1) must be inside, cut falls back to {a}.
  const auto cut = min_height_cut(c, r, label, 0, 4);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(*cut, std::vector<NodeId>{a});
  // Negative height: impossible.
  EXPECT_FALSE(min_height_cut(c, r, label, -1, 4).has_value());
}

TEST(ConeCut, SizeLimitRespected) {
  Circuit c;
  std::vector<Circuit::FaninSpec> fanins;
  for (int i = 0; i < 5; ++i) fanins.push_back({c.add_pi("i" + std::to_string(i)), 0});
  const NodeId g = c.add_gate("g", tt_xor(5), fanins);
  c.add_po("$po:o", {g, 0});
  const std::vector<int> label(static_cast<std::size_t>(c.num_nodes()), 0);
  EXPECT_FALSE(min_height_cut(c, g, label, 0, 4).has_value());
  EXPECT_TRUE(min_height_cut(c, g, label, 0, 5).has_value());
}

// ---- FlowMap / FlowSYN ----

TEST(FlowMap, DepthOfTwoLevelCircuit) {
  // 8-input AND as two levels of 4-AND: at K=4 depth 2, at K=8 depth 1.
  Circuit c;
  std::vector<Circuit::FaninSpec> level0;
  for (int i = 0; i < 8; ++i) level0.push_back({c.add_pi("i" + std::to_string(i)), 0});
  const Circuit::FaninSpec fa[4] = {level0[0], level0[1], level0[2], level0[3]};
  const Circuit::FaninSpec fb[4] = {level0[4], level0[5], level0[6], level0[7]};
  const NodeId ga = c.add_gate("ga", tt_and(4), fa);
  const NodeId gb = c.add_gate("gb", tt_and(4), fb);
  const Circuit::FaninSpec fr[2] = {{ga, 0}, {gb, 0}};
  const NodeId r = c.add_gate("r", tt_and(2), fr);
  c.add_po("$po:o", {r, 0});

  FlowMapOptions opt;
  opt.k = 4;
  EXPECT_EQ(flowmap(c, opt).depth, 2);
}

TEST(FlowMap, MappedCircuitIsEquivalentAndKBounded) {
  Rng rng(53);
  for (int trial = 0; trial < 8; ++trial) {
    const Circuit c = random_dag(rng, 40, 5, 4);
    FlowMapOptions opt;
    opt.k = 4;
    const FlowMapResult labels = flowmap(c, opt);
    const Circuit mapped = generate_mapped_circuit(c, labels, opt);
    EXPECT_TRUE(mapped.is_k_bounded(opt.k));
    Rng sim_rng(trial);
    const auto stimulus = random_stimulus(sim_rng, c.num_pis(), 32);
    EXPECT_EQ(simulate_sequence(c, stimulus), simulate_sequence(mapped, stimulus));
  }
}

TEST(FlowMap, DepthNeverBelowLowerBoundAndMonotoneInK) {
  Rng rng(59);
  for (int trial = 0; trial < 5; ++trial) {
    const Circuit c = random_dag(rng, 60, 6, 4);
    int prev_depth = 1 << 20;
    for (int k = 4; k <= 6; ++k) {
      FlowMapOptions opt;
      opt.k = k;
      const int depth = flowmap(c, opt).depth;
      EXPECT_LE(depth, prev_depth);  // bigger LUTs never increase depth
      prev_depth = depth;
    }
  }
}

TEST(FlowSyn, DecompositionNeverIncreasesDepth) {
  Rng rng(61);
  for (int trial = 0; trial < 6; ++trial) {
    const Circuit c = random_dag(rng, 50, 6, 4);
    FlowMapOptions plain;
    plain.k = 4;
    FlowMapOptions syn = plain;
    syn.enable_decomposition = true;
    const int d_plain = flowmap(c, plain).depth;
    const FlowMapResult syn_result = flowmap(c, syn);
    EXPECT_LE(syn_result.depth, d_plain);
    // Resynthesized mapping stays functionally correct.
    const Circuit mapped = generate_mapped_circuit(c, syn_result, syn);
    Rng sim_rng(trial + 100);
    const auto stimulus = random_stimulus(sim_rng, c.num_pis(), 32);
    EXPECT_EQ(simulate_sequence(c, stimulus), simulate_sequence(mapped, stimulus));
  }
}

TEST(FlowMap, RejectsSequentialAndUnboundedInputs) {
  const Circuit seq = read_blif_string(counter3_blif());
  FlowMapOptions opt;
  opt.k = 4;
  EXPECT_THROW((void)flowmap(seq, opt), Error);
}

// ---- split / merge ----

TEST(SeqSplit, RoundTripThroughIdentityMapping) {
  for (const auto& spec : tiny_suite()) {
    const Circuit c = generate_fsm_circuit(spec);
    const SequentialSplit split = split_at_registers(c);
    for (EdgeId e = 0; e < split.comb.num_edges(); ++e) {
      EXPECT_EQ(split.comb.edge(e).weight, 0);
    }
    // Merging the unmapped comb circuit back must reproduce the behavior.
    const Circuit merged = merge_registers(c, split, split.comb);
    Rng rng(spec.seed + 7);
    const auto stimulus = random_stimulus(rng, c.num_pis(), 64);
    EXPECT_EQ(simulate_sequence(c, stimulus), simulate_sequence(merged, stimulus))
        << spec.name;
  }
}

TEST(SeqSplit, PseudoBoundaryBookkeeping) {
  const Circuit c = read_blif_string(counter3_blif());
  const SequentialSplit split = split_at_registers(c);
  EXPECT_EQ(split.pseudo_pi.size(), 3u);  // q0, q1, q2
  EXPECT_EQ(split.pseudo_po.size(), 3u);  // n0, n1, n2 observed
  EXPECT_EQ(split.comb.num_pis(), c.num_pis() + 3);
}

// ---- packing ----

TEST(Pack, MergesSingleFanoutChains) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId b = c.add_pi("b");
  const Circuit::FaninSpec f1[2] = {{a, 0}, {b, 0}};
  const NodeId g1 = c.add_gate("g1", tt_and(2), f1);
  const Circuit::FaninSpec f2[1] = {{g1, 0}};
  const NodeId g2 = c.add_gate("g2", tt_not(), f2);
  c.add_po("$po:o", {g2, 0});
  const Circuit packed = packed_circuit(c, 4);
  EXPECT_EQ(c.num_gates(), 2);
  EXPECT_EQ(packed.num_gates(), 1);
  const NodeId root = packed.find("g2");
  ASSERT_NE(root, kNoNode);
  EXPECT_EQ(packed.function(root), tt_nand(2));
}

TEST(Pack, RespectsKAndFanoutConstraints) {
  Circuit c;
  std::vector<Circuit::FaninSpec> wide;
  for (int i = 0; i < 4; ++i) wide.push_back({c.add_pi("i" + std::to_string(i)), 0});
  const NodeId g1 = c.add_gate("g1", tt_and(4), wide);
  const Circuit::FaninSpec f2[2] = {{g1, 0}, wide[0]};
  const NodeId g2 = c.add_gate("g2", tt_or(2), f2);
  const Circuit::FaninSpec f3[1] = {{g1, 0}};  // second fanout of g1
  const NodeId g3 = c.add_gate("g3", tt_not(), f3);
  c.add_po("$po:o2", {g2, 0});
  c.add_po("$po:o3", {g3, 0});
  int merges = -1;
  const Circuit packed = packed_circuit(c, 4, &merges);
  // g1 has two fanouts: nothing merges.
  EXPECT_EQ(merges, 0);
  EXPECT_EQ(packed.num_gates(), 3);
}

// Dedupe leaves LUTs that read one signal on two slots. A merge must read
// such a repeated fanin, in the consumer or the producer, as one variable.
TEST(Pack, MergesAcrossRepeatedFanins) {
  Circuit c;
  const NodeId a = c.add_pi("a");
  const NodeId b = c.add_pi("b");
  const Circuit::FaninSpec fp[3] = {{a, 0}, {b, 0}, {a, 0}};
  const NodeId p = c.add_gate("p", tt_maj3(), fp);  // maj(a, b, a) = a
  const Circuit::FaninSpec fq[3] = {{p, 0}, {b, 0}, {b, 0}};
  const NodeId q = c.add_gate("q", tt_xor(3), fq);  // p ^ b ^ b = p
  c.add_po("$po:o", {q, 0});
  int merges = 0;
  const Circuit packed = packed_circuit(c, 2, &merges);
  EXPECT_EQ(merges, 1);
  ASSERT_EQ(packed.num_gates(), 1);
  const NodeId root = packed.find("q");
  ASSERT_NE(root, kNoNode);
  EXPECT_EQ(packed.fanin_edges(root).size(), 2u);  // {b, a}, each once
  Rng rng(5);
  const auto stimulus = random_stimulus(rng, 2, 16);
  EXPECT_EQ(simulate_sequence(c, stimulus), simulate_sequence(packed, stimulus));
}

TEST(Pack, SequentialCircuitsKeepBehavior) {
  for (const auto& spec : tiny_suite()) {
    const Circuit c = generate_fsm_circuit(spec);
    const Circuit packed = packed_circuit(c, 6);
    EXPECT_LE(packed.num_gates(), c.num_gates()) << spec.name;
    EXPECT_TRUE(packed.is_k_bounded(6));
    Rng rng(spec.seed + 13);
    const auto stimulus = random_stimulus(rng, c.num_pis(), 64);
    EXPECT_EQ(simulate_sequence(c, stimulus), simulate_sequence(packed, stimulus))
        << spec.name;
  }
}

}  // namespace
}  // namespace turbosyn
