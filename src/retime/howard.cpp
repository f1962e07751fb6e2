#include "retime/howard.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "base/check.hpp"

namespace turbosyn {
namespace {

/// A cycle ratio val/tau in lowest terms (0/1 for a zero-register cycle).
/// Reduced pairs are equal exactly when the ratios are, so two nodes with
/// equal ratios keep their potentials over one denominator, tau.
struct Ratio {
  std::int64_t val = 0;
  std::int64_t tau = 1;
  bool operator==(const Ratio&) const = default;
  bool operator>(const Ratio& o) const {
    return static_cast<__int128>(val) * o.tau > static_cast<__int128>(o.val) * tau;
  }
};

/// An edge inside the SCC, by its ends' positions in the SCC's node list.
struct Arc {
  std::int32_t to = 0;
  std::int32_t val = 0;  // delay of the head
  std::int32_t tau = 0;  // registers
  EdgeId edge = kNoEdge;
};

/// Policy iteration over one SCC. Node state lives in flat arrays indexed by
/// the node's position in the SCC's node list; node i's out-arcs are
/// arcs_[first_[i], first_[i + 1]).
class HowardScc {
 public:
  HowardScc(const Circuit& c, std::span<const NodeId> nodes, std::span<const int> component_of,
            std::span<const int> position)
      : policy_(nodes.size()),
        sigma_(nodes.size()),
        d_(nodes.size()),
        cycle_of_(nodes.size(), -1),
        color_(nodes.size(), 0) {
    const int comp = component_of[static_cast<std::size_t>(nodes[0])];
    __int128 delay = 0;
    __int128 registers = 0;
    first_.push_back(0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      delay += c.delay(nodes[i]);
      for (const EdgeId e : c.fanout_edges(nodes[i])) {
        const Circuit::Edge& edge = c.edge(e);
        const auto to = static_cast<std::size_t>(edge.to);
        if (component_of[to] != comp) continue;  // leaves the SCC
        arcs_.push_back({position[to], c.delay(edge.to), edge.weight, e});
        registers += edge.weight;
      }
      // Initial policy: the first arc. SCC nodes have internal successors.
      TS_ASSERT(arcs_.size() > first_.back());
      policy_[i] = first_.back();
      first_.push_back(arcs_.size());
    }
    // The overflow bound of howard.hpp's comment.
    TS_CHECK(4 * delay * registers < (__int128{1} << 63),
             "SCC too large for 64-bit cycle-ratio potentials");
  }

  /// Runs policy iteration; returns the best cycle found.
  CycleRatioResult run() {
    // Policy iteration converges in finitely many steps; the guard is a
    // safety net far above anything observed.
    const int max_rounds = 50 + 10 * static_cast<int>(policy_.size());
    for (int round = 0; round < max_rounds; ++round) {
      evaluate();
      if (!improve()) break;
    }
    Ratio ratio;
    int best_cycle = -1;
    for (std::size_t i = 0; i < policy_.size(); ++i) {
      if (cycle_of_[i] >= 0 && (best_cycle < 0 || sigma_[i] > ratio)) {
        ratio = sigma_[i];
        best_cycle = cycle_of_[i];
      }
    }
    CycleRatioResult best;
    if (best_cycle >= 0) {
      const auto id = static_cast<std::size_t>(best_cycle);
      best.ratio = Rational(ratio.val, ratio.tau);
      best.critical_cycle.assign(cycle_edges_.begin() + cycle_begin_[id],
                                 cycle_edges_.begin() + cycle_begin_[id + 1]);
    }
    return best;
  }

 private:
  /// Position of the head of the policy arc of the node at position i.
  std::size_t successor(std::size_t i) const {
    return static_cast<std::size_t>(arcs_[policy_[i]].to);
  }
  /// d(u) for arc a = u->w with d(w) over sigma(u)'s denominator:
  /// val(a) - sigma(u)*tau(a) + d(w), scaled by that denominator.
  std::int64_t potential(std::size_t u, const Arc& a, std::int64_t d_w) const {
    return a.val * sigma_[u].tau - sigma_[u].val * a.tau + d_w;
  }

  /// Finds policy cycles, their ratios, and node potentials.
  void evaluate() {
    cycle_edges_.clear();
    cycle_begin_.assign(1, 0);
    std::fill(cycle_of_.begin(), cycle_of_.end(), -1);
    std::fill(color_.begin(), color_.end(), 0);  // 0 unseen, 1 on the path, 2 done
    for (std::size_t start = 0; start < policy_.size(); ++start) {
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
          const Arc& a = arcs_[policy_[path_[p]]];
          cycle_edges_.push_back(a.edge);
          val += a.val;
          tau += a.tau;
        }
        cycle_begin_.push_back(cycle_edges_.size());
        TS_CHECK(tau > 0 || val == 0,
                 "combinational loop (positive delay, zero registers): ratio unbounded");
        const std::int64_t g = std::gcd(val, tau);
        const Ratio sigma = tau > 0 ? Ratio{val / g, tau / g} : Ratio{};
        // Anchor the cycle: d(v) = 0, then propagate backwards around it.
        sigma_[v] = sigma;
        d_[v] = 0;
        for (std::size_t p = path_.size(); p-- > first + 1;) {
          const std::size_t u = path_[p];
          sigma_[u] = sigma;
          d_[u] = potential(u, arcs_[policy_[u]], d_[successor(u)]);
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
          d_[u] = potential(u, arcs_[policy_[u]], d_[w]);
          cycle_of_[u] = cycle_of_[w];
        }
        color_[u] = 2;
      }
    }
  }

  /// One improvement sweep; true if any policy changed.
  bool improve() {
    bool changed = false;
    for (std::size_t u = 0; u < policy_.size(); ++u) {
      for (std::size_t a = first_[u]; a < first_[u + 1]; ++a) {
        const auto v = static_cast<std::size_t>(arcs_[a].to);
        const bool better = sigma_[v] > sigma_[u] ||
                            (sigma_[v] == sigma_[u] && potential(u, arcs_[a], d_[v]) > d_[u]);
        if (better && a != policy_[u]) {
          policy_[u] = a;
          changed = true;
        }
      }
    }
    return changed;
  }

  std::vector<Arc> arcs_;
  std::vector<std::size_t> first_;
  // Per SCC position.
  std::vector<std::size_t> policy_;  // chosen out-arc
  std::vector<Ratio> sigma_;         // ratio of the node's policy cycle
  std::vector<std::int64_t> d_;      // potential relative to the cycle, over sigma's tau
  std::vector<int> cycle_of_;        // id of the policy cycle the node drains into
  std::vector<std::uint8_t> color_;
  std::vector<std::size_t> path_;
  // Policy cycle `id` is cycle_edges_[cycle_begin_[id], cycle_begin_[id + 1]).
  std::vector<EdgeId> cycle_edges_;
  std::vector<std::size_t> cycle_begin_;
};

}  // namespace

CycleRatioResult circuit_mdr_howard(const Circuit& c) {
  return circuit_mdr_howard(c, strongly_connected_components(c));
}

CycleRatioResult circuit_mdr_howard(const Circuit& c, const SccDecomposition& scc) {
  std::vector<int> position(static_cast<std::size_t>(c.num_nodes()), 0);
  for (const auto& nodes : scc.components) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      position[static_cast<std::size_t>(nodes[i])] = static_cast<int>(i);
    }
  }
  CycleRatioResult best;
  for (const auto& nodes : scc.components) {
    // A single node lies on a cycle only through a self-loop.
    const auto self_loop = [&](EdgeId e) { return c.edge(e).to == nodes[0]; };
    if (nodes.size() == 1 && std::ranges::none_of(c.fanout_edges(nodes[0]), self_loop)) continue;
    const CycleRatioResult r = HowardScc(c, nodes, scc.component_of, position).run();
    if (!r.critical_cycle.empty() && (best.critical_cycle.empty() || r.ratio > best.ratio)) {
      best = r;
    }
  }
  return best;
}

}  // namespace turbosyn
