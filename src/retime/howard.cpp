#include "retime/howard.hpp"

#include <algorithm>
#include <vector>

#include "base/check.hpp"

namespace turbosyn {
namespace {

/// Per-node policy-iteration state within one SCC.
struct NodeState {
  EdgeId policy = kNoEdge;  // chosen out-edge (stays inside the SCC)
  Rational sigma = Rational(0);  // ratio of the node's policy cycle
  Rational d = Rational(0);      // potential relative to the cycle
};

class HowardScc {
 public:
  HowardScc(const Circuit& c, std::span<const NodeId> nodes, std::span<const int> component_of,
            int comp)
      : c_(c), nodes_(nodes) {
    // Initial policy: first out-edge that stays inside the SCC.
    for (const NodeId v : nodes) {
      for (const EdgeId e : c.fanout_edges(v)) {
        if (component_of[static_cast<std::size_t>(c.edge(e).to)] == comp) {
          state(v).policy = e;
          break;
        }
      }
      TS_ASSERT(state(v).policy != kNoEdge);  // SCC nodes have internal successors
    }
  }

  /// Runs policy iteration; returns the best cycle found.
  CycleRatioResult run() {
    CycleRatioResult best;
    // Policy iteration converges in finitely many steps; the guard is a
    // safety net far above anything observed.
    const int max_rounds = 50 + 10 * static_cast<int>(nodes_.size());
    for (int round = 0; round < max_rounds; ++round) {
      evaluate();
      if (!improve()) break;
    }
    for (const NodeId v : nodes_) {
      if (cycle_of_.count(v) != 0 &&
          (best.critical_cycle.empty() || state(v).sigma > best.ratio)) {
        best.ratio = state(v).sigma;
        best.critical_cycle = cycle_of_.at(v);
      }
    }
    return best;
  }

 private:
  NodeState& state(NodeId v) { return states_[v]; }

  /// Finds policy cycles, their ratios, and node potentials.
  void evaluate() {
    cycle_of_.clear();
    std::unordered_map<NodeId, int> color;  // 0 unseen, 1 on stack, 2 done
    for (const NodeId v : nodes_) color[v] = 0;

    for (const NodeId start : nodes_) {
      if (color[start] != 0) continue;
      // Walk the functional graph until a visited node.
      std::vector<NodeId> path;
      NodeId v = start;
      while (color[v] == 0) {
        color[v] = 1;
        path.push_back(v);
        v = c_.edge(state(v).policy).to;
      }
      if (color[v] == 1) {
        // Found a new cycle starting at v within `path`.
        const auto it = std::find(path.begin(), path.end(), v);
        std::vector<EdgeId> cycle;
        std::int64_t val = 0;
        std::int64_t tau = 0;
        for (auto p = it; p != path.end(); ++p) {
          const EdgeId e = state(*p).policy;
          cycle.push_back(e);
          val += c_.delay(c_.edge(e).to);
          tau += c_.edge(e).weight;
        }
        TS_CHECK(tau > 0 || val == 0,
                 "combinational loop (positive delay, zero registers): ratio unbounded");
        const Rational sigma = tau > 0 ? Rational(val, tau) : Rational(0);
        // Anchor the cycle: d(v) = 0, then propagate backwards around it:
        // for policy edge u->w, d(u) = val(e) - sigma*tau(e) + d(w).
        state(v).sigma = sigma;
        state(v).d = Rational(0);
        std::vector<NodeId> cyc_nodes(it, path.end());
        for (std::size_t i = cyc_nodes.size(); i-- > 1;) {
          const NodeId u = cyc_nodes[i];
          const EdgeId e = state(u).policy;
          const NodeId w = c_.edge(e).to;
          state(u).sigma = sigma;
          state(u).d = Rational(c_.delay(c_.edge(e).to)) -
                       sigma * Rational(c_.edge(e).weight) + state(w).d;
        }
        for (const NodeId u : cyc_nodes) cycle_of_[u] = cycle;
      }
      // Pop the path: tree nodes take values from their policy successor.
      for (auto p = path.rbegin(); p != path.rend(); ++p) {
        const NodeId u = *p;
        if (color[u] == 2) continue;
        const EdgeId e = state(u).policy;
        const NodeId w = c_.edge(e).to;
        if (cycle_of_.count(u) == 0) {
          state(u).sigma = state(w).sigma;
          state(u).d = Rational(c_.delay(c_.edge(e).to)) -
                       state(u).sigma * Rational(c_.edge(e).weight) + state(w).d;
          cycle_of_[u] = cycle_of_.at(w);
        }
        color[u] = 2;
      }
    }
  }

  /// One improvement sweep; true if any policy changed.
  bool improve() {
    bool changed = false;
    for (const NodeId u : nodes_) {
      for (const EdgeId e : c_.fanout_edges(u)) {
        const NodeId v = c_.edge(e).to;
        if (states_.count(v) == 0) continue;  // leaves the SCC
        const NodeState& su = state(u);
        const NodeState& sv = state(v);
        bool better = false;
        if (sv.sigma > su.sigma) {
          better = true;
        } else if (sv.sigma == su.sigma) {
          const Rational cand = Rational(c_.delay(v)) -
                                su.sigma * Rational(c_.edge(e).weight) + sv.d;
          if (cand > su.d) better = true;
        }
        if (better && e != su.policy) {
          state(u).policy = e;
          changed = true;
        }
      }
    }
    return changed;
  }

  const Circuit& c_;
  std::span<const NodeId> nodes_;
  std::unordered_map<NodeId, NodeState> states_;
  std::unordered_map<NodeId, std::vector<EdgeId>> cycle_of_;
};

}  // namespace

CycleRatioResult circuit_mdr_howard(const Circuit& c) {
  const SccDecomposition scc = strongly_connected_components(c);
  CycleRatioResult best;
  for (std::size_t comp = 0; comp < scc.components.size(); ++comp) {
    const auto& nodes = scc.components[comp];
    bool has_cycle = nodes.size() > 1;
    if (!has_cycle) {
      for (const EdgeId e : c.fanout_edges(nodes[0])) {
        if (c.edge(e).to == nodes[0]) has_cycle = true;
      }
    }
    if (!has_cycle) continue;
    HowardScc howard(c, nodes, scc.component_of, static_cast<int>(comp));
    const CycleRatioResult r = howard.run();
    if (r.ratio > best.ratio || best.critical_cycle.empty()) {
      if (!r.critical_cycle.empty() &&
          (best.critical_cycle.empty() || r.ratio > best.ratio)) {
        best = r;
      }
    }
  }
  return best;
}

}  // namespace turbosyn
