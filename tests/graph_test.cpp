#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "graph/digraph.hpp"
#include "graph/node_cut.hpp"
#include "graph/scc.hpp"
#include "oracle.hpp"

namespace turbosyn {
namespace {

Digraph chain(int n) {
  Digraph g;
  g.add_nodes(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

TEST(Digraph, AdjacencyBookkeeping) {
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const EdgeId e = g.add_edge(a, b, 3);
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.edge(e).from, a);
  EXPECT_EQ(g.edge(e).to, b);
  EXPECT_EQ(g.weight(e), 3);
  EXPECT_EQ(g.fanout_count(a), 1);
  EXPECT_EQ(g.fanin_count(b), 1);
  EXPECT_THROW(g.add_edge(a, 5), Error);
}

TEST(Scc, ChainHasSingletonComponentsInTopoOrder) {
  const Digraph g = chain(5);
  const SccDecomposition scc = strongly_connected_components(g);
  ASSERT_EQ(scc.components.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(scc.component_of[static_cast<std::size_t>(i)], i);
  }
}

TEST(Scc, DetectsCycleComponent) {
  Digraph g;
  g.add_nodes(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 1);  // cycle {1,2}
  g.add_edge(2, 3);
  const SccDecomposition scc = strongly_connected_components(g);
  ASSERT_EQ(scc.components.size(), 3u);
  EXPECT_EQ(scc.component_of[1], scc.component_of[2]);
  // Topological: 0 before {1,2} before 3.
  EXPECT_LT(scc.component_of[0], scc.component_of[1]);
  EXPECT_LT(scc.component_of[2], scc.component_of[3]);
}

TEST(Scc, SkipEdgePredicateBreaksCycles) {
  Digraph g;
  g.add_nodes(2);
  g.add_edge(0, 1, 0);
  const EdgeId back = g.add_edge(1, 0, 1);
  const SccDecomposition with_all = strongly_connected_components(g);
  EXPECT_EQ(with_all.components.size(), 1u);
  const SccDecomposition without =
      strongly_connected_components(g, [&](EdgeId e) { return e == back; });
  EXPECT_EQ(without.components.size(), 2u);
}

TEST(Topo, OrdersRespectEdges) {
  Digraph g;
  g.add_nodes(4);
  g.add_edge(2, 0);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const std::vector<NodeId> order = topological_order(g);
  std::vector<int> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  EXPECT_LT(pos[2], pos[0]);
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[2], pos[3]);
}

TEST(Topo, ThrowsOnCycle) {
  Digraph g;
  g.add_nodes(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_THROW((void)topological_order(g), Error);
}

TEST(BellmanFord, NoPositiveCycleOnDag) {
  const Digraph g = chain(4);
  const auto result = oracle::find_positive_cycle(g, [](EdgeId) { return 100; });
  EXPECT_FALSE(result.found);
}

TEST(BellmanFord, FindsPositiveCycleAndItsEdges) {
  Digraph g;
  g.add_nodes(3);
  g.add_edge(0, 1);
  const EdgeId e1 = g.add_edge(1, 2);
  const EdgeId e2 = g.add_edge(2, 1);
  const auto result = oracle::find_positive_cycle(g, [&](EdgeId e) { return e == e1 ? 2 : -1; });
  ASSERT_TRUE(result.found);
  // The cycle 1 -> 2 -> 1 has cost 2 - 1 = 1 > 0.
  ASSERT_EQ(result.edges.size(), 2u);
  EXPECT_TRUE((result.edges[0] == e1 && result.edges[1] == e2) ||
              (result.edges[0] == e2 && result.edges[1] == e1));
}

TEST(BellmanFord, ZeroCostCycleIsNotPositive) {
  Digraph g;
  g.add_nodes(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const auto result = oracle::find_positive_cycle(g, [](EdgeId) { return 0; });
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
  // The depth-first search pops the highest-numbered source and fanout
  // first, so the first path is x1 -> u -> v -> w, which fills w. The
  // second path enters w from x2's long chain and must undo u -> v -> w:
  // back from w to out(v), through v's own arc backwards to in(v), back to
  // out(u), and out along u's long chain y1..y4.
  enum { x2, x1, y1, y2, y3, y4, u, v, w, z1, z2, z3, sink, n };
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
  EXPECT_EQ(cut_of(f), (std::vector<std::int32_t>{x2, x1}));
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

}  // namespace
}  // namespace turbosyn
