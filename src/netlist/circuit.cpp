#include "netlist/circuit.hpp"

#include <algorithm>

#include "base/check.hpp"
#include "graph/scc.hpp"

namespace turbosyn {

NodeId Circuit::add_node(NodeKind kind, const std::string& name) {
  TS_CHECK(!name.empty(), "node name must be non-empty");
  TS_CHECK(by_name_.find(name) == by_name_.end(), "duplicate node name '" << name << "'");
  const NodeId v = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{kind, name, TruthTable(), true, {}, {}});
  by_name_.emplace(name, v);
  ++structural_version_;
  return v;
}

EdgeId Circuit::add_edge(NodeId from, NodeId to, int weight) {
  TS_CHECK(from >= 0 && from < num_nodes(), "edge source out of range");
  TS_CHECK(to >= 0 && to < num_nodes(), "edge target out of range");
  TS_CHECK(weight >= 0, "edge weight (flip-flop count) must be non-negative");
  TS_CHECK(!is_po(from), "a PO cannot drive anything");
  const EdgeId e = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{from, to, weight});
  node(from).fanouts.push_back(e);
  node(to).fanins.push_back(e);
  ++structural_version_;
  return e;
}

NodeId Circuit::add_pi(const std::string& name) {
  const NodeId v = add_node(NodeKind::kPi, name);
  pis_.push_back(v);
  return v;
}

NodeId Circuit::add_po(const std::string& name, FaninSpec fanin) {
  const NodeId v = add_node(NodeKind::kPo, name);
  pos_.push_back(v);
  add_edge(fanin.driver, v, fanin.weight);
  return v;
}

NodeId Circuit::add_gate(const std::string& name, TruthTable func,
                         std::span<const FaninSpec> fanins) {
  const NodeId v = declare_gate(name);
  finish_gate(v, std::move(func), fanins);
  return v;
}

NodeId Circuit::declare_gate(const std::string& name) {
  const NodeId v = add_node(NodeKind::kGate, name);
  node(v).finished = false;
  return v;
}

void Circuit::finish_gate(NodeId v, TruthTable func, std::span<const FaninSpec> fanins) {
  TS_CHECK(is_gate(v), "finish_gate requires a declared gate");
  TS_CHECK(!node(v).finished, "gate '" << name(v) << "' finished twice");
  TS_CHECK(func.num_vars() == static_cast<int>(fanins.size()),
           "gate '" << name(v) << "': function arity " << func.num_vars() << " != fanin count "
                    << fanins.size());
  node(v).func = std::move(func);
  for (const FaninSpec& f : fanins) add_edge(f.driver, v, f.weight);
  node(v).finished = true;
  ++structural_version_;  // the function feeds CsrTopology::kZeroUnsafe
}

void Circuit::reserve(int nodes, int edges) {
  nodes_.reserve(static_cast<std::size_t>(nodes));
  edges_.reserve(static_cast<std::size_t>(edges));
  by_name_.reserve(static_cast<std::size_t>(nodes));
}

int Circuit::num_gates() const {
  int n = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (is_gate(v) && !fanin_edges(v).empty()) ++n;
  }
  return n;
}

std::int64_t Circuit::num_ffs() const {
  std::int64_t n = 0;
  for (const Edge& e : edges_) n += e.weight;
  return n;
}

std::int64_t Circuit::num_ffs_shared() const {
  std::int64_t n = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    int deepest = 0;
    for (const EdgeId e : fanout_edges(v)) deepest = std::max(deepest, edge(e).weight);
    n += deepest;
  }
  return n;
}

const TruthTable& Circuit::function(NodeId v) const {
  TS_CHECK(is_gate(v), "only gates have logic functions");
  return node(v).func;
}

void Circuit::set_edge_weight(EdgeId e, int weight) {
  TS_CHECK(weight >= 0, "edge weight must be non-negative");
  edges_[static_cast<std::size_t>(e)].weight = weight;
  ++structural_version_;
}

const CsrTopology& Circuit::topology() const {
  // Lock-free steady state; racing first calls fall through to the rebuild
  // lock below, where the loser reuses the winner's snapshot.
  const CsrTopology* cached = topo_cache_.ptr.load(std::memory_order_acquire);
  if (cached != nullptr && cached->built_version == structural_version_) return *cached;
  const std::lock_guard<std::mutex> lock(topo_cache_.mu);
  cached = topo_cache_.ptr.load(std::memory_order_relaxed);
  if (cached != nullptr && cached->built_version == structural_version_) return *cached;
  auto topo = std::make_shared<CsrTopology>();
  topo->built_version = structural_version_;
  const std::size_t n = static_cast<std::size_t>(num_nodes());
  topo->fanin_offset.resize(n + 1);
  topo->fanout_offset.resize(n + 1);
  topo->fanin_src.resize(static_cast<std::size_t>(num_edges()));
  topo->fanin_weight.resize(static_cast<std::size_t>(num_edges()));
  topo->fanout_dst.resize(static_cast<std::size_t>(num_edges()));
  topo->fanout_weight.resize(static_cast<std::size_t>(num_edges()));
  topo->node_flags.resize(n);
  std::size_t fanin_pos = 0;
  std::size_t fanout_pos = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    topo->fanin_offset[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(fanin_pos);
    topo->fanout_offset[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(fanout_pos);
    for (const EdgeId e : fanin_edges(v)) {
      topo->fanin_src[fanin_pos] = edge(e).from;
      topo->fanin_weight[fanin_pos] = edge(e).weight;
      ++fanin_pos;
    }
    for (const EdgeId e : fanout_edges(v)) {
      topo->fanout_dst[fanout_pos] = edge(e).to;
      topo->fanout_weight[fanout_pos] = edge(e).weight;
      ++fanout_pos;
    }
    std::uint8_t flags = 0;
    if (is_pi(v)) flags |= CsrTopology::kIsPi;
    if (is_gate(v) && !fanin_edges(v).empty() && node(v).finished && node(v).func.bit(0)) {
      flags |= CsrTopology::kZeroUnsafe;
    }
    topo->node_flags[static_cast<std::size_t>(v)] = flags;
  }
  topo->fanin_offset[n] = static_cast<std::int32_t>(fanin_pos);
  topo->fanout_offset[n] = static_cast<std::int32_t>(fanout_pos);
  topo_cache_.snap = std::move(topo);
  topo_cache_.ptr.store(topo_cache_.snap.get(), std::memory_order_release);
  return *topo_cache_.snap;
}

NodeId Circuit::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kNoNode : it->second;
}

void Circuit::validate() const {
  for (NodeId v = 0; v < num_nodes(); ++v) {
    switch (kind(v)) {
      case NodeKind::kPi:
        TS_CHECK(fanin_edges(v).empty(), "PI '" << name(v) << "' has fanins");
        break;
      case NodeKind::kPo:
        TS_CHECK(fanin_edges(v).size() == 1, "PO '" << name(v) << "' must have exactly one fanin");
        break;
      case NodeKind::kGate:
        TS_CHECK(node(v).finished, "gate '" << name(v) << "' declared but never finished");
        TS_CHECK(node(v).func.num_vars() == static_cast<int>(fanin_edges(v).size()),
                 "gate '" << name(v) << "' arity mismatch");
        break;
    }
  }
  // Every cycle must carry at least one flip-flop: the subgraph of weight-0
  // edges must be acyclic, so Kahn's order over it reaches every node.
  std::vector<int> pending(nodes_.size(), 0);
  for (const Edge& e : edges_) pending[static_cast<std::size_t>(e.to)] += e.weight == 0;
  std::vector<NodeId> ready;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (pending[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
  }
  int reached = 0;
  while (!ready.empty()) {
    const NodeId v = ready.back();
    ready.pop_back();
    ++reached;
    for (const EdgeId id : fanout_edges(v)) {
      const Edge& e = edge(id);
      if (e.weight == 0 && --pending[static_cast<std::size_t>(e.to)] == 0) ready.push_back(e.to);
    }
  }
  // The message topological_order gives: BLIF diagnostics quote it.
  TS_CHECK(reached == num_nodes(),
           "topological_order called on a graph with a (non-skipped) cycle");
}

bool Circuit::is_k_bounded(int k) const { return max_fanin() <= k; }

int Circuit::max_fanin() const {
  int m = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (is_gate(v)) m = std::max(m, static_cast<int>(fanin_edges(v).size()));
  }
  return m;
}

Digraph Circuit::to_digraph() const {
  Digraph g;
  g.add_nodes(num_nodes());
  for (const Edge& e : edges_) g.add_edge(e.from, e.to, e.weight);
  return g;
}

CircuitStats compute_stats(const Circuit& c) {
  CircuitStats s;
  s.pis = c.num_pis();
  s.pos = c.num_pos();
  s.gates = c.num_gates();
  s.ffs = c.num_ffs_shared();
  s.max_fanin = c.max_fanin();
  const Digraph g = c.to_digraph();
  const SccDecomposition scc = strongly_connected_components(g);
  for (const auto& comp : scc.components) {
    if (comp.size() > 1) {
      ++s.sccs_with_cycle;
      continue;
    }
    for (const EdgeId e : g.fanout_edges(comp[0])) {
      if (g.edge(e).to == comp[0]) {
        ++s.sccs_with_cycle;
        break;
      }
    }
  }
  return s;
}

}  // namespace turbosyn
