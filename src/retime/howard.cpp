#include "retime/howard.hpp"

#include <algorithm>
#include <vector>

#include "base/check.hpp"

namespace turbosyn {
namespace {

/// Policy iteration over one SCC. Node state lives in flat arrays indexed by
/// the node's position in the SCC's node list (`position`).
class HowardScc {
 public:
  HowardScc(const Circuit& c, std::span<const NodeId> nodes, std::span<const int> component_of,
            std::span<const int> position, int comp)
      : c_(c),
        nodes_(nodes),
        component_of_(component_of),
        position_(position),
        comp_(comp),
        policy_(nodes.size(), kNoEdge),
        sigma_(nodes.size()),
        d_(nodes.size()),
        cycle_of_(nodes.size(), -1),
        color_(nodes.size(), 0) {
    // Initial policy: first out-edge that stays inside the SCC.
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (const EdgeId e : c.fanout_edges(nodes[i])) {
        if (inside(c.edge(e).to)) {
          policy_[i] = e;
          break;
        }
      }
      TS_ASSERT(policy_[i] != kNoEdge);  // SCC nodes have internal successors
    }
  }

  /// Runs policy iteration; returns the best cycle found.
  CycleRatioResult run() {
    // Policy iteration converges in finitely many steps; the guard is a
    // safety net far above anything observed.
    const int max_rounds = 50 + 10 * static_cast<int>(nodes_.size());
    for (int round = 0; round < max_rounds; ++round) {
      evaluate();
      if (!improve()) break;
    }
    CycleRatioResult best;
    int best_cycle = -1;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (cycle_of_[i] >= 0 && (best_cycle < 0 || sigma_[i] > best.ratio)) {
        best.ratio = sigma_[i];
        best_cycle = cycle_of_[i];
      }
    }
    if (best_cycle >= 0) {
      const auto id = static_cast<std::size_t>(best_cycle);
      best.critical_cycle.assign(cycle_edges_.begin() + cycle_begin_[id],
                                 cycle_edges_.begin() + cycle_begin_[id + 1]);
    }
    return best;
  }

 private:
  bool inside(NodeId v) const { return component_of_[static_cast<std::size_t>(v)] == comp_; }
  /// Position of the head of the policy edge of the node at position i.
  std::size_t successor(std::size_t i) const {
    return static_cast<std::size_t>(position_[static_cast<std::size_t>(c_.edge(policy_[i]).to)]);
  }
  /// d(u) for policy edge e = u->w: val(e) - sigma(u)*tau(e) + d(w).
  Rational potential(std::size_t u, std::size_t w) const {
    const Circuit::Edge& e = c_.edge(policy_[u]);
    return Rational(c_.delay(e.to)) - sigma_[u] * Rational(e.weight) + d_[w];
  }

  /// Finds policy cycles, their ratios, and node potentials.
  void evaluate() {
    cycle_edges_.clear();
    cycle_begin_.assign(1, 0);
    std::fill(cycle_of_.begin(), cycle_of_.end(), -1);
    std::fill(color_.begin(), color_.end(), 0);  // 0 unseen, 1 on the path, 2 done
    for (std::size_t start = 0; start < nodes_.size(); ++start) {
      if (color_[start] != 0) continue;
      // Walk the functional graph until a visited node.
      path_.clear();
      std::size_t v = start;
      while (color_[v] == 0) {
        color_[v] = 1;
        path_.push_back(v);
        v = successor(v);
      }
      if (color_[v] == 1) {
        // Found a new cycle starting at v within `path_`.
        const auto first = static_cast<std::size_t>(
            std::find(path_.begin(), path_.end(), v) - path_.begin());
        const int id = static_cast<int>(cycle_begin_.size()) - 1;
        std::int64_t val = 0;
        std::int64_t tau = 0;
        for (std::size_t p = first; p < path_.size(); ++p) {
          const EdgeId e = policy_[path_[p]];
          cycle_edges_.push_back(e);
          val += c_.delay(c_.edge(e).to);
          tau += c_.edge(e).weight;
        }
        cycle_begin_.push_back(cycle_edges_.size());
        TS_CHECK(tau > 0 || val == 0,
                 "combinational loop (positive delay, zero registers): ratio unbounded");
        const Rational sigma = tau > 0 ? Rational(val, tau) : Rational(0);
        // Anchor the cycle: d(v) = 0, then propagate backwards around it.
        sigma_[v] = sigma;
        d_[v] = Rational(0);
        for (std::size_t p = path_.size(); p-- > first + 1;) {
          const std::size_t u = path_[p];
          sigma_[u] = sigma;
          d_[u] = potential(u, successor(u));
        }
        for (std::size_t p = first; p < path_.size(); ++p) cycle_of_[path_[p]] = id;
      }
      // Pop the path: tree nodes take values from their policy successor.
      for (auto p = path_.rbegin(); p != path_.rend(); ++p) {
        const std::size_t u = *p;
        if (color_[u] == 2) continue;
        if (cycle_of_[u] < 0) {
          const std::size_t w = successor(u);
          sigma_[u] = sigma_[w];
          d_[u] = potential(u, w);
          cycle_of_[u] = cycle_of_[w];
        }
        color_[u] = 2;
      }
    }
  }

  /// One improvement sweep; true if any policy changed.
  bool improve() {
    bool changed = false;
    for (std::size_t u = 0; u < nodes_.size(); ++u) {
      for (const EdgeId e : c_.fanout_edges(nodes_[u])) {
        const NodeId to = c_.edge(e).to;
        if (!inside(to)) continue;  // leaves the SCC
        const auto v = static_cast<std::size_t>(position_[static_cast<std::size_t>(to)]);
        bool better = false;
        if (sigma_[v] > sigma_[u]) {
          better = true;
        } else if (sigma_[v] == sigma_[u]) {
          const Rational cand = Rational(c_.delay(to)) -
                                sigma_[u] * Rational(c_.edge(e).weight) + d_[v];
          if (cand > d_[u]) better = true;
        }
        if (better && e != policy_[u]) {
          policy_[u] = e;
          changed = true;
        }
      }
    }
    return changed;
  }

  const Circuit& c_;
  std::span<const NodeId> nodes_;
  std::span<const int> component_of_;
  std::span<const int> position_;  // per circuit node: its index in its SCC
  int comp_;
  // Per SCC position.
  std::vector<EdgeId> policy_;   // chosen out-edge (stays inside the SCC)
  std::vector<Rational> sigma_;  // ratio of the node's policy cycle
  std::vector<Rational> d_;      // potential relative to the cycle
  std::vector<int> cycle_of_;    // id of the policy cycle the node drains into
  std::vector<std::uint8_t> color_;
  std::vector<std::size_t> path_;
  // Policy cycle `id` is cycle_edges_[cycle_begin_[id], cycle_begin_[id + 1]).
  std::vector<EdgeId> cycle_edges_;
  std::vector<std::size_t> cycle_begin_;
};

}  // namespace

CycleRatioResult circuit_mdr_howard(const Circuit& c) {
  const SccDecomposition scc = strongly_connected_components(c);
  std::vector<int> position(static_cast<std::size_t>(c.num_nodes()), 0);
  for (const auto& nodes : scc.components) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      position[static_cast<std::size_t>(nodes[i])] = static_cast<int>(i);
    }
  }
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
    HowardScc howard(c, nodes, scc.component_of, position, static_cast<int>(comp));
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
