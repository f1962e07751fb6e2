#pragma once
// Sequential circuit = retiming graph G(V, E, W) with logic functions.
//
// Following Leiserson–Saxe and the paper, each node is a PI, a PO or a gate;
// each edge carries a weight = number of flip-flops on that connection.
// Gate logic is a truth table over the gate's fanins in fanin order, so the
// same structure represents both the K-bounded input network and the mapped
// K-LUT network. The unit delay model assigns delay 1 to every gate with
// fanins and 0 to PIs, POs and constants.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/truth_table.hpp"

namespace turbosyn {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;
inline constexpr EdgeId kNoEdge = -1;

enum class NodeKind : std::uint8_t { kPi, kPo, kGate };

/// Flat CSR connectivity of a Circuit for the per-probe hot loops (label
/// bounds, expanded-network BFS, the PLD isolation check). The per-node
/// std::vector<EdgeId> representation costs two dependent loads per fanin
/// (edge id, then the Edge record); the CSR arrays put each node's fanin
/// drivers and weights in one contiguous run. `node_flags` folds the
/// per-node predicates those loops branch on into a single byte load.
struct CsrTopology {
  static constexpr std::uint8_t kIsPi = 1;        // source: no fanins
  static constexpr std::uint8_t kZeroUnsafe = 4;  // gate with fanins, f(0..0) == 1

  std::vector<std::int32_t> fanin_offset;   // num_nodes + 1
  std::vector<NodeId> fanin_src;            // driver per fanin slot, slot order
  std::vector<std::int32_t> fanin_weight;   // register count per fanin slot
  std::vector<std::int32_t> fanout_offset;  // num_nodes + 1
  std::vector<NodeId> fanout_dst;
  std::vector<std::int32_t> fanout_weight;
  std::vector<std::uint8_t> node_flags;     // OR of the k* predicate bits
  std::uint64_t built_version = 0;          // structural_version_ at build time

  bool flag(NodeId v, std::uint8_t bit) const {
    return (node_flags[static_cast<std::size_t>(v)] & bit) != 0;
  }
};

class Circuit {
 public:
  struct Edge {
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    int weight = 0;  // number of flip-flops on the connection
  };

  struct FaninSpec {
    NodeId driver = kNoNode;
    int weight = 0;
  };

  NodeId add_pi(const std::string& name);
  /// A PO observes exactly one signal; the fanin is given at creation.
  NodeId add_po(const std::string& name, FaninSpec fanin);
  /// Gate with logic `func` over `fanins` (func arity must match count).
  /// A 0-fanin gate is a constant and has delay 0.
  NodeId add_gate(const std::string& name, TruthTable func, std::span<const FaninSpec> fanins);

  /// Two-phase construction for cyclic (sequential) structures: declare all
  /// gates first, then attach logic and fanins. Every declared gate must be
  /// finished exactly once before validate().
  NodeId declare_gate(const std::string& name);
  void finish_gate(NodeId v, TruthTable func, std::span<const FaninSpec> fanins);

  /// Reserves storage for `nodes` nodes and `edges` edges, so a builder that
  /// knows its size regrows neither the node table nor the name index.
  void reserve(int nodes, int edges);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  int num_pis() const { return static_cast<int>(pis_.size()); }
  int num_pos() const { return static_cast<int>(pos_.size()); }
  /// Gates with at least one fanin (constants excluded), i.e. LUT/gate count.
  int num_gates() const;
  /// Total flip-flop bits = sum of edge weights (no sharing).
  std::int64_t num_ffs() const;
  /// Flip-flop bits with fanout sharing: registers on fanout edges of the
  /// same driver share a chain (as a real implementation and the BLIF writer
  /// do), so each driver costs its maximum outgoing weight.
  std::int64_t num_ffs_shared() const;

  NodeKind kind(NodeId v) const { return node(v).kind; }
  bool is_pi(NodeId v) const { return kind(v) == NodeKind::kPi; }
  bool is_po(NodeId v) const { return kind(v) == NodeKind::kPo; }
  bool is_gate(NodeId v) const { return kind(v) == NodeKind::kGate; }
  /// True for PIs and 0-fanin gates (constants): label/delay sources.
  bool is_source(NodeId v) const { return is_pi(v) || (is_gate(v) && fanin_edges(v).empty()); }
  const std::string& name(NodeId v) const { return node(v).name; }
  const TruthTable& function(NodeId v) const;
  /// Unit delay model: 1 for a gate with fanins, 0 otherwise.
  int delay(NodeId v) const { return is_gate(v) && !fanin_edges(v).empty() ? 1 : 0; }

  const Edge& edge(EdgeId e) const { return edges_[static_cast<std::size_t>(e)]; }
  void set_edge_weight(EdgeId e, int weight);
  std::span<const EdgeId> fanin_edges(NodeId v) const { return node(v).fanins; }
  std::span<const EdgeId> fanout_edges(NodeId v) const { return node(v).fanouts; }
  /// The driver of fanin slot `pos` of v (slot order matches function vars).
  NodeId fanin(NodeId v, int pos) const { return edge(fanin_edges(v)[static_cast<std::size_t>(pos)]).from; }

  std::span<const NodeId> pis() const { return pis_; }
  std::span<const NodeId> pos() const { return pos_; }

  /// Looks up a node by name; kNoNode if absent. Names must be unique.
  NodeId find(const std::string& name) const;

  /// Structural sanity: function arities match fanin counts, every cycle
  /// carries at least one flip-flop (no combinational loops), PO fanins
  /// present. Throws turbosyn::Error on violation.
  void validate() const;

  /// True if every gate has at most k fanins.
  bool is_k_bounded(int k) const;
  /// Largest gate fanin count.
  int max_fanin() const;

  /// The CSR view of the current structure, built lazily and cached until
  /// the next structural change (add_node/add_edge/set_edge_weight). The
  /// steady-state call is one acquire load plus a version check, so the
  /// per-probe hot loops can call it freely. Priming is thread-safe:
  /// concurrent first calls race to the rebuild lock, one builds, the rest
  /// reuse its snapshot (mutations themselves still require exclusivity,
  /// as for any other method).
  const CsrTopology& topology() const;

 private:
  struct Node {
    NodeKind kind;
    std::string name;
    TruthTable func;       // meaningful for gates only
    bool finished = true;  // false between declare_gate and finish_gate
    std::vector<EdgeId> fanins;
    std::vector<EdgeId> fanouts;
  };

  const Node& node(NodeId v) const { return nodes_[static_cast<std::size_t>(v)]; }
  Node& node(NodeId v) { return nodes_[static_cast<std::size_t>(v)]; }
  NodeId add_node(NodeKind kind, const std::string& name);
  EdgeId add_edge(NodeId from, NodeId to, int weight);

  // Cached CSR view. Copies share the (immutable) snapshot; a mutation bumps
  // only the mutated object's structural version, so its next topology()
  // call rebuilds while other copies keep their still-valid snapshot.
  // `ptr` is the lock-free fast path (always equals snap.get()); `mu`
  // serializes rebuilds so concurrent read-only priming is safe.
  struct TopoCache {
    TopoCache() = default;
    TopoCache(const TopoCache& other) { *this = other; }
    TopoCache& operator=(const TopoCache& other) {
      if (this == &other) return *this;
      std::shared_ptr<const CsrTopology> shared = other.snapshot();
      const std::lock_guard<std::mutex> lock(mu);
      snap = std::move(shared);
      ptr.store(snap.get(), std::memory_order_release);
      return *this;
    }
    std::shared_ptr<const CsrTopology> snapshot() const {
      const std::lock_guard<std::mutex> lock(mu);
      return snap;
    }
    mutable std::mutex mu;
    std::shared_ptr<const CsrTopology> snap;        // guarded by mu
    std::atomic<const CsrTopology*> ptr{nullptr};   // == snap.get()
  };

  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<NodeId> pis_;
  std::vector<NodeId> pos_;
  std::unordered_map<std::string, NodeId> by_name_;
  std::uint64_t structural_version_ = 1;
  mutable TopoCache topo_cache_;
};

struct CircuitStats {
  int pis = 0;
  int pos = 0;
  int gates = 0;
  std::int64_t ffs = 0;
  int max_fanin = 0;
  int sccs_with_cycle = 0;  // number of non-trivial SCCs (loops)
};

CircuitStats compute_stats(const Circuit& c);

// ---- Graph routines on the retiming graph itself. ----

struct SccDecomposition {
  /// component_of[v] = index of v's SCC.
  std::vector<int> component_of;
  /// components[i] = nodes of SCC i; component indices are topologically
  /// ordered: every edge u->v with distinct components goes from a lower
  /// index to a higher index.
  std::vector<std::vector<NodeId>> components;
};

/// Strongly connected components over every edge, registered or not
/// (iterative Tarjan along the fanout lists). The TurboMap/TurboSYN label
/// computation processes SCCs in this topological order (Theorem 2 of the
/// paper relies on it).
SccDecomposition strongly_connected_components(const Circuit& c);

/// Topological order of the register-free (weight-0) subgraph, by Kahn's
/// algorithm: nodes start ready in id order, the last ready node goes
/// first, and fanouts are released in edge-id order. Throws
/// turbosyn::Error on a combinational loop (a cycle of weight-0 edges).
std::vector<NodeId> combinational_order(const Circuit& c);

}  // namespace turbosyn
