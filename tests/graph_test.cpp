#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "graph/node_cut.hpp"
#include "netlist/circuit.hpp"
#include "oracle.hpp"

namespace turbosyn {
namespace {

/// Gates g0..g{n-1} joined by `edges` (from, to, weight); each edge becomes
/// the next fanin of its target, so edge ids follow the targets' ids. A gate
/// without fanins is a constant.
Circuit graph_circuit(int n, std::initializer_list<std::array<int, 3>> edges) {
  Circuit c;
  for (int v = 0; v < n; ++v) c.declare_gate("g" + std::to_string(v));
  std::vector<std::vector<Circuit::FaninSpec>> fanins(static_cast<std::size_t>(n));
  for (const auto& [from, to, weight] : edges) {
    fanins[static_cast<std::size_t>(to)].push_back({from, weight});
  }
  for (NodeId v = 0; v < n; ++v) {
    const auto& f = fanins[static_cast<std::size_t>(v)];
    c.finish_gate(v, TruthTable::constant(static_cast<int>(f.size()), false), f);
  }
  return c;
}

EdgeId edge_between(const Circuit& c, NodeId from, NodeId to) {
  for (const EdgeId e : c.fanout_edges(from)) {
    if (c.edge(e).to == to) return e;
  }
  return kNoEdge;
}

TEST(Scc, ChainHasSingletonComponentsInTopoOrder) {
  const Circuit c = graph_circuit(5, {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {3, 4, 0}});
  const SccDecomposition scc = strongly_connected_components(c);
  ASSERT_EQ(scc.components.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(scc.component_of[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(combinational_order(c), (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(Scc, DetectsCycleComponent) {
  // The loop {1, 2} carries a register, as a legal circuit's loops do.
  const Circuit c = graph_circuit(4, {{0, 1, 0}, {1, 2, 0}, {2, 1, 1}, {2, 3, 0}});
  c.validate();
  const SccDecomposition scc = strongly_connected_components(c);
  ASSERT_EQ(scc.components.size(), 3u);
  EXPECT_EQ(scc.component_of[1], scc.component_of[2]);
  // Topological: 0 before {1,2} before 3.
  EXPECT_LT(scc.component_of[0], scc.component_of[1]);
  EXPECT_LT(scc.component_of[2], scc.component_of[3]);
}

TEST(Scc, SkipEdgePredicateBreaksCycles) {
  // A back edge with a register: the components see every edge, so 0 and 1
  // share one; the combinational order skips registered edges, so the loop
  // splits at its register and 0 comes first.
  const Circuit c = graph_circuit(2, {{0, 1, 0}, {1, 0, 1}});
  EXPECT_EQ(strongly_connected_components(c).components.size(), 1u);
  EXPECT_EQ(combinational_order(c), (std::vector<NodeId>{0, 1}));
}

TEST(Topo, OrdersRespectEdges) {
  const Circuit c = graph_circuit(4, {{2, 0, 0}, {0, 1, 0}, {2, 3, 0}});
  // Kahn's order: nodes start ready in id order, the last ready node goes
  // first, and fanouts are released in edge-id order.
  EXPECT_EQ(combinational_order(c), (std::vector<NodeId>{2, 3, 0, 1}));
}

TEST(Topo, ThrowsOnCycle) {
  // A loop of weight-0 edges: both the order and validate() reject it with
  // the message BLIF diagnostics quote.
  const Circuit c = graph_circuit(2, {{0, 1, 0}, {1, 0, 0}});
  const std::string message = "topological_order called on a graph with a (non-skipped) cycle";
  try {
    (void)combinational_order(c);
    ADD_FAILURE() << "combinational_order accepted a weight-0 loop";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos) << e.what();
  }
  try {
    c.validate();
    ADD_FAILURE() << "validate accepted a weight-0 loop";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos) << e.what();
  }
}

TEST(BellmanFord, NoPositiveCycleOnDag) {
  const Circuit c = graph_circuit(4, {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}});
  const auto result = oracle::find_positive_cycle(c, [](EdgeId) { return 100; });
  EXPECT_FALSE(result.found);
}

TEST(BellmanFord, FindsPositiveCycleAndItsEdges) {
  const Circuit c = graph_circuit(3, {{0, 1, 0}, {1, 2, 0}, {2, 1, 1}});
  const EdgeId e1 = edge_between(c, 1, 2);
  const EdgeId e2 = edge_between(c, 2, 1);
  const auto result = oracle::find_positive_cycle(c, [&](EdgeId e) { return e == e1 ? 2 : -1; });
  ASSERT_TRUE(result.found);
  // The cycle 1 -> 2 -> 1 has cost 2 - 1 = 1 > 0.
  ASSERT_EQ(result.edges.size(), 2u);
  EXPECT_TRUE((result.edges[0] == e1 && result.edges[1] == e2) ||
              (result.edges[0] == e2 && result.edges[1] == e1));
}

TEST(BellmanFord, ZeroCostCycleIsNotPositive) {
  const Circuit c = graph_circuit(2, {{0, 1, 0}, {1, 0, 1}});
  const auto result = oracle::find_positive_cycle(c, [](EdgeId) { return 0; });
  EXPECT_FALSE(result.found);
}

// A node-cut network built by hand: fanins in CSR form, unit capacities,
// no flags. The NodeCut::Network view points into it.
struct TestNet {
  explicit TestNet(int n) : fanin_lists(static_cast<std::size_t>(n)),
                            capacity(static_cast<std::size_t>(n), 1),
                            flags(static_cast<std::size_t>(n), 0) {}
  void edge(int u, int v) { fanin_lists[static_cast<std::size_t>(v)].push_back(u); }
  NodeCut::Network view() {
    begin.clear();
    end.clear();
    fanins.clear();
    for (const auto& list : fanin_lists) {
      begin.push_back(static_cast<std::int32_t>(fanins.size()));
      fanins.insert(fanins.end(), list.begin(), list.end());
      end.push_back(static_cast<std::int32_t>(fanins.size()));
    }
    return NodeCut::Network{begin, end, fanins, capacity, flags};
  }
  std::vector<std::vector<std::int32_t>> fanin_lists;
  std::vector<std::int64_t> capacity;
  std::vector<std::uint8_t> flags;
  std::vector<std::int32_t> begin, end, fanins;
};

std::vector<std::int32_t> cut_of(const NodeCut& f) { return {f.cut().begin(), f.cut().end()}; }

TEST(NodeCut, SimpleBipartite) {
  // Two source-fed unit nodes both feed the sink: two disjoint paths.
  TestNet t(3);
  t.flags = {NodeCut::kFromSource, NodeCut::kFromSource, NodeCut::kSink};
  t.edge(0, 2);
  t.edge(1, 2);
  NodeCut f;
  EXPECT_EQ(f.run(t.view(), 10), 2);
  EXPECT_EQ(cut_of(f), (std::vector<std::int32_t>{0, 1}));
  EXPECT_EQ(f.paths(), 2);
}

TEST(NodeCut, RespectsLimitWithEarlyExit) {
  TestNet t(11);
  t.flags.assign(11, NodeCut::kFromSource);
  t.flags[10] = NodeCut::kSink;
  for (int i = 0; i < 10; ++i) t.edge(i, 10);
  NodeCut f;
  EXPECT_GT(f.run(t.view(), 3), 3);  // stops early, reports "exceeds limit"
  EXPECT_EQ(f.paths(), 4);           // limit + 1 paths, not 10
}

TEST(NodeCut, MinCutSourceSide) {
  // Chain 0 -> 1 -> 2 -> sink with only node 1 cuttable.
  TestNet t(4);
  t.capacity = {NodeCut::kUncuttable, 1, NodeCut::kUncuttable, 1};
  t.flags = {NodeCut::kFromSource, 0, 0, NodeCut::kSink};
  t.edge(0, 1);
  t.edge(1, 2);
  t.edge(2, 3);
  NodeCut f;
  EXPECT_EQ(f.run(t.view(), 5), 1);
  EXPECT_EQ(cut_of(f), (std::vector<std::int32_t>{1}));
  // With every node uncuttable no finite cut exists.
  t.capacity[1] = NodeCut::kUncuttable;
  EXPECT_GT(f.run(t.view(), 5), 5);
}

TEST(NodeCut, NodeSplitCutIdentifiesNodes) {
  // Diamond a -> {b, c} -> d -> sink: {a} and {d} are both minimum cuts;
  // the one closest to the source is {a}.
  TestNet t(5);
  t.flags = {NodeCut::kFromSource, 0, 0, 0, NodeCut::kSink};
  t.edge(0, 1);
  t.edge(0, 2);
  t.edge(1, 3);
  t.edge(2, 3);
  t.edge(3, 4);
  NodeCut f;
  EXPECT_EQ(f.run(t.view(), 4), 1);
  EXPECT_EQ(cut_of(f), (std::vector<std::int32_t>{0}));
}

TEST(NodeCut, ReroutesFlowBackThroughASaturatedNode) {
  // The depth-first search starts at the lowest-numbered source and takes
  // fanouts in node order, so the first path is x1 -> u -> v -> w, which
  // fills w. The second path enters w from x2's long chain and must undo
  // u -> v -> w: back from w to out(v), through v's own arc backwards to
  // in(v), back to out(u), and out along u's long chain y1..y4.
  enum { x1, x2, u, v, w, y1, y2, y3, y4, z1, z2, z3, sink, n };
  TestNet t(n);
  t.flags[x1] = t.flags[x2] = NodeCut::kFromSource;
  t.flags[sink] = NodeCut::kSink;
  for (const auto& [from, to] : {std::pair{x1, u}, {u, v}, {v, w}, {w, sink}, {u, y1}, {y1, y2},
                                 {y2, y3}, {y3, y4}, {y4, sink}, {x2, z1}, {z1, z2}, {z2, z3},
                                 {z3, w}}) {
    t.edge(from, to);
  }
  NodeCut f;
  EXPECT_EQ(f.run(t.view(), 5), 2);
  EXPECT_EQ(f.paths(), 2);
  EXPECT_EQ(cut_of(f), (std::vector<std::int32_t>{x1, x2}));
}

// Exhaustive oracle. A node set S is a cut iff no path from a source-fed
// node to a sink avoids S (a path ends at its first sink). Its source side
// is the set of halves reachable from the source with S's arcs removed:
// in(v) for every reached v, out(v) for reached v not in S.
struct Reach {
  bool separates = true;
  std::vector<bool> in, out;
};

Reach reach_avoiding(const TestNet& t, std::uint32_t s_mask) {
  const std::size_t n = t.capacity.size();
  std::vector<std::vector<int>> fanouts(n);
  for (std::size_t v = 0; v < n; ++v) {
    for (const int u : t.fanin_lists[v]) {
      fanouts[static_cast<std::size_t>(u)].push_back(static_cast<int>(v));
    }
  }
  Reach r;
  r.in.assign(n, false);
  r.out.assign(n, false);
  std::vector<int> stack;
  for (std::size_t v = 0; v < n; ++v) {
    if (t.flags[v] & NodeCut::kFromSource) {
      r.in[v] = true;
      stack.push_back(static_cast<int>(v));
    }
  }
  while (!stack.empty()) {
    const auto v = static_cast<std::size_t>(stack.back());
    stack.pop_back();
    if (t.flags[v] & NodeCut::kSink) {
      r.separates = false;
      continue;
    }
    if ((s_mask >> v) & 1) continue;
    r.out[v] = true;
    for (const int w : fanouts[v]) {
      if (!r.in[static_cast<std::size_t>(w)]) {
        r.in[static_cast<std::size_t>(w)] = true;
        stack.push_back(w);
      }
    }
  }
  return r;
}

bool side_subset(const Reach& a, const Reach& b) {
  for (std::size_t v = 0; v < a.in.size(); ++v) {
    if ((a.in[v] && !b.in[v]) || (a.out[v] && !b.out[v])) return false;
  }
  return true;
}

// Random DAG on n <= 12 nodes (fanins point to lower indices); the last node
// and a few others are sinks, fanin-free nodes and a few others are fed by
// the source, and some nodes are uncuttable. Fanin runs are laid out in a
// shuffled order in the pool, as ExpandedNetwork's expansion order does.
TestNet random_net(Rng& rng, int n) {
  TestNet t(n);
  for (int v = 1; v < n; ++v) {
    const int fanins = static_cast<int>(rng.next_below(4));
    for (int i = 0; i < fanins; ++i) {
      t.edge(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(v))), v);
    }
  }
  for (int v = 0; v < n; ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (v == n - 1 || rng.next_below(8) == 0) {
      t.flags[i] = NodeCut::kSink;
    } else if (t.fanin_lists[i].empty() || rng.next_below(8) == 0) {
      t.flags[i] = NodeCut::kFromSource;
    }
    if (rng.next_below(6) == 0) t.capacity[i] = NodeCut::kUncuttable;
  }
  return t;
}

NodeCut::Network shuffled_view(TestNet& t, Rng& rng) {
  const std::size_t n = t.capacity.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.next_below(i)]);
  t.begin.assign(n, 0);
  t.end.assign(n, 0);
  t.fanins.clear();
  for (const std::size_t v : order) {
    t.begin[v] = static_cast<std::int32_t>(t.fanins.size());
    t.fanins.insert(t.fanins.end(), t.fanin_lists[v].begin(), t.fanin_lists[v].end());
    t.end[v] = static_cast<std::int32_t>(t.fanins.size());
  }
  return NodeCut::Network{t.begin, t.end, t.fanins, t.capacity, t.flags};
}

TEST(NodeCut, ExhaustiveOracleOnRandomDags) {
  Rng rng(19);
  NodeCut f;  // reused across networks of every size
  int with_cut = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(11));
    TestNet t = random_net(rng, n);
    std::uint32_t cuttable = 0;
    for (int v = 0; v < n; ++v) {
      const auto i = static_cast<std::size_t>(v);
      if (!(t.flags[i] & NodeCut::kSink) && t.capacity[i] == 1) cuttable |= 1u << v;
    }
    // Every cut, its size, and the minimum (kNone: no finite cut exists).
    constexpr int kNone = 1000;
    std::vector<std::uint32_t> cuts;
    int min_size = kNone;
    for (std::uint32_t s = cuttable;; s = (s - 1) & cuttable) {
      if (reach_avoiding(t, s).separates) {
        cuts.push_back(s);
        min_size = std::min(min_size, std::popcount(s));
      }
      if (s == 0) break;
    }
    const int limit = static_cast<int>(rng.next_below(5));
    const std::int64_t value = f.run(shuffled_view(t, rng), limit);
    EXPECT_LE(f.paths(), limit + 1) << trial;
    if (min_size > limit) {
      EXPECT_GT(value, limit) << trial;
      continue;
    }
    ++with_cut;
    ASSERT_EQ(value, min_size) << trial;
    std::uint32_t got = 0;
    for (const std::int32_t v : f.cut()) got |= 1u << v;
    ASSERT_EQ(std::popcount(got), min_size) << trial;
    const Reach got_side = reach_avoiding(t, got);
    ASSERT_TRUE(got_side.separates) << trial;
    for (const std::uint32_t s : cuts) {
      if (std::popcount(s) != min_size) continue;
      EXPECT_TRUE(side_subset(got_side, reach_avoiding(t, s)))
          << "trial " << trial << ": cut is not the minimum cut closest to the source";
    }

    // Weighted (low-cost) variant: B per node plus 1 for non-shared nodes,
    // B = k + 1. The cut must be the (size, #non-shared)-lexicographic
    // minimum among the cuts of size <= k.
    const int k = 4;
    const std::int64_t b = k + 1;
    std::uint32_t shared = 0;
    for (int v = 0; v < n; ++v) {
      if (rng.next_below(2) == 0) shared |= 1u << v;
    }
    TestNet weighted = t;
    for (int v = 0; v < n; ++v) {
      const auto i = static_cast<std::size_t>(v);
      if (weighted.capacity[i] == 1) weighted.capacity[i] = b + (((shared >> v) & 1) ? 0 : 1);
    }
    const auto cost = [&](std::uint32_t s) {
      return std::pair{std::popcount(s), std::popcount(s & ~shared)};
    };
    std::pair<int, int> best{kNone, 0};
    for (const std::uint32_t s : cuts) {
      if (std::popcount(s) <= k) best = std::min(best, cost(s));
    }
    const std::int64_t weighted_value = f.run(shuffled_view(weighted, rng), (b + 1) * k);
    if (best.first > k) {
      EXPECT_GT(weighted_value, (b + 1) * k) << trial;
      continue;
    }
    ASSERT_EQ(weighted_value, b * best.first + best.second) << trial;
    std::uint32_t weighted_cut = 0;
    for (const std::int32_t v : f.cut()) weighted_cut |= 1u << v;
    EXPECT_TRUE(reach_avoiding(t, weighted_cut).separates) << trial;
    EXPECT_EQ(cost(weighted_cut), best) << trial;
  }
  EXPECT_GT(with_cut, 500);  // the random networks exercise both outcomes
}

// The flow a failed run leaves, split by flow_paths(): exactly limit + 1
// unit paths, each from a sink down fanin edges to its first source-fed
// node, and no node on more paths than its capacity. On the exhaustive
// oracle's random networks, with unit and with larger capacities, so paths
// through uncuttable nodes and pushes of several units are covered.
TEST(NodeCut, FlowPathsDecomposeTheFlow) {
  Rng rng(23);
  NodeCut f;  // reused across networks of every size
  int failed_runs = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(11));
    TestNet t = random_net(rng, n);
    if (rng.next_below(2) == 0) {
      for (std::int64_t& cap : t.capacity) {
        if (cap == 1) cap = 1 + static_cast<std::int64_t>(rng.next_below(3));
      }
    }
    const int limit = static_cast<int>(rng.next_below(5));
    const NodeCut::Network view = shuffled_view(t, rng);
    const std::int64_t value = f.run(view, limit);
    if (value <= limit) continue;
    ++failed_runs;
    EXPECT_EQ(value, limit + 1) << trial;
    const NodeCut::Paths paths = f.flow_paths(view);
    ASSERT_EQ(paths.ends.size(), static_cast<std::size_t>(limit + 1)) << trial;
    std::vector<std::int64_t> load(static_cast<std::size_t>(n), 0);
    std::size_t begin = 0;
    for (const std::int32_t end_offset : paths.ends) {
      const auto end = static_cast<std::size_t>(end_offset);
      ASSERT_LT(begin, end) << trial;
      const auto path = paths.nodes.subspan(begin, end - begin);
      EXPECT_TRUE(t.flags[static_cast<std::size_t>(path.front())] & NodeCut::kSink) << trial;
      EXPECT_TRUE(t.flags[static_cast<std::size_t>(path.back())] & NodeCut::kFromSource) << trial;
      for (std::size_t i = 1; i < path.size(); ++i) {
        const auto& fanins = t.fanin_lists[static_cast<std::size_t>(path[i - 1])];
        EXPECT_NE(std::find(fanins.begin(), fanins.end(), path[i]), fanins.end())
            << "trial " << trial << ": a step that is no fanin edge";
        const std::uint8_t flags = t.flags[static_cast<std::size_t>(path[i])];
        EXPECT_FALSE(flags & NodeCut::kSink) << trial;
        if (i + 1 < path.size()) EXPECT_FALSE(flags & NodeCut::kFromSource) << trial;
        ++load[static_cast<std::size_t>(path[i])];
      }
      begin = end;
    }
    EXPECT_EQ(begin, paths.nodes.size()) << trial;
    for (int v = 0; v < n; ++v) {
      EXPECT_LE(load[static_cast<std::size_t>(v)], t.capacity[static_cast<std::size_t>(v)])
          << "trial " << trial << ": node " << v << " over capacity";
    }
  }
  EXPECT_GT(failed_runs, 300);
}

// Random layered network: layer 0 is fed by the source, every node of a
// later layer takes fanins from the layers below it (mostly the one right
// below), and the last node is the one sink, fed by the top layer. Layer-0
// nodes have unit capacity, so every augmenting path carries one unit, and
// some nodes above are uncuttable, as mandatory copies are in E_v.
TestNet random_layered_net(Rng& rng) {
  const int layers = 2 + static_cast<int>(rng.next_below(4));
  std::vector<std::vector<int>> layer(static_cast<std::size_t>(layers));
  int n = 0;
  for (auto& nodes : layer) {
    const int width = 3 + static_cast<int>(rng.next_below(14));
    for (int i = 0; i < width; ++i) nodes.push_back(n++);
  }
  const int sink = n++;
  TestNet t(n);
  for (const int v : layer[0]) t.flags[static_cast<std::size_t>(v)] = NodeCut::kFromSource;
  t.flags[static_cast<std::size_t>(sink)] = NodeCut::kSink;
  for (std::size_t l = 1; l < layer.size(); ++l) {
    for (const int v : layer[l]) {
      const int fanins = 1 + static_cast<int>(rng.next_below(3));
      for (int i = 0; i < fanins; ++i) {
        const std::size_t from = rng.next_below(4) == 0 ? rng.next_below(l) : l - 1;
        const auto& below = layer[from];
        t.edge(below[rng.next_below(below.size())], v);
      }
      if (rng.next_below(5) == 0) t.capacity[static_cast<std::size_t>(v)] = NodeCut::kUncuttable;
    }
  }
  for (const int v : layer.back()) t.edge(v, sink);
  return t;
}

// A flow need not start from zero. After run(K) fails, resume(Cmax) goes on
// from its K + 1 units; seed() starts from some of the unit paths that run
// left. Either way the value and the cut are the cold run(Cmax)'s (the
// minimum cut closest to the source does not depend on the flow), and the
// warm flow finds exactly the paths the cold one found beyond its start.
TEST(NodeCut, ResumedAndSeededFlowsMatchTheColdRun) {
  constexpr int kK = 5;
  constexpr int kCmax = 15;
  Rng rng(31);
  NodeCut cold;
  NodeCut warm;  // reused across networks, as the label engine reuses its own
  int resumed = 0;
  int with_cut = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    TestNet t = random_layered_net(rng);
    const NodeCut::Network view = shuffled_view(t, rng);
    const std::int64_t value = cold.run(view, kCmax);
    const std::vector<std::int32_t> cold_cut = cut_of(cold);

    if (warm.run(view, kK) <= kK) {
      // The K-cut test succeeded: its flow is already maximum.
      EXPECT_EQ(warm.resume(view, kCmax), value) << trial;
      EXPECT_EQ(warm.paths(), 0) << trial;
      EXPECT_EQ(cut_of(warm), cold_cut) << trial;
      continue;
    }
    ++resumed;
    if (value <= kCmax) ++with_cut;
    const NodeCut::Paths unit_paths = warm.flow_paths(view);
    ASSERT_EQ(unit_paths.ends.size(), static_cast<std::size_t>(kK + 1)) << trial;
    const std::vector<std::int32_t> nodes(unit_paths.nodes.begin(), unit_paths.nodes.end());
    const std::vector<std::int32_t> ends(unit_paths.ends.begin(), unit_paths.ends.end());
    ASSERT_EQ(warm.resume(view, kCmax), value) << trial;
    EXPECT_EQ(cut_of(warm), cold_cut) << trial;
    EXPECT_EQ(warm.paths(), cold.paths() - (kK + 1)) << trial;
    EXPECT_EQ(warm.flow(), value) << trial;

    // Seed from the first m of those paths (m = 0 is the cold run).
    const std::size_t m = rng.next_below(kK + 2);
    const std::size_t seed_nodes = m == 0 ? 0 : static_cast<std::size_t>(ends[m - 1]);
    warm.seed(view, NodeCut::Paths{std::span(nodes).first(seed_nodes),
                                   std::span(ends).first(m)});
    EXPECT_EQ(warm.flow(), static_cast<std::int64_t>(m)) << trial;
    ASSERT_EQ(warm.resume(view, kCmax), value) << trial;
    EXPECT_EQ(cut_of(warm), cold_cut) << trial;
    EXPECT_EQ(warm.paths(), cold.paths() - static_cast<std::int64_t>(m)) << trial;
  }
  // Most K-cut tests fail, and the wider Cmax test then finds a cut.
  EXPECT_GT(resumed, 750);
  EXPECT_GT(with_cut, 300);
}

}  // namespace
}  // namespace turbosyn
