#include "retime/retiming.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <tuple>
#include <utility>

#include "base/check.hpp"
#include "graph/scc.hpp"

namespace turbosyn {
namespace {

/// Arrival times over the zero-weight subgraph of g with the per-node lag r
/// applied to edge weights; nullopt if the retimed zero-weight subgraph is
/// cyclic (infinite period).
std::optional<std::vector<std::int64_t>> arrival_times(const Digraph& g,
                                                       std::span<const int> delay,
                                                       std::span<const int> r) {
  const auto retimed_weight = [&](EdgeId e) {
    const auto& edge = g.edge(e);
    return edge.weight + r[static_cast<std::size_t>(edge.to)] -
           r[static_cast<std::size_t>(edge.from)];
  };
  std::vector<NodeId> order;
  try {
    order = topological_order(g, [&](EdgeId e) { return retimed_weight(e) != 0; });
  } catch (const Error&) {
    return std::nullopt;
  }
  std::vector<std::int64_t> at(static_cast<std::size_t>(g.num_nodes()), 0);
  for (const NodeId v : order) {
    std::int64_t best = 0;
    for (const EdgeId e : g.fanin_edges(v)) {
      if (retimed_weight(e) != 0) continue;
      best = std::max(best, at[static_cast<std::size_t>(g.edge(e).from)]);
    }
    at[static_cast<std::size_t>(v)] = best + delay[static_cast<std::size_t>(v)];
  }
  return at;
}

}  // namespace

std::int64_t clock_period(const Digraph& g, std::span<const int> delay) {
  const std::vector<int> zero(static_cast<std::size_t>(g.num_nodes()), 0);
  const auto at = arrival_times(g, delay, zero);
  TS_CHECK(at.has_value(), "combinational loop: clock period is unbounded");
  return at->empty() ? 0 : *std::max_element(at->begin(), at->end());
}

namespace {

/// The Leiserson–Saxe W/D pairs of one retiming graph, built on the first
/// exact solve and reused by every target period of a min-period search.
/// Graphs above kExactRetimingLimit get no table: every solve then runs the
/// conservative increment-only FEAS.
class RetimingTable {
 public:
  RetimingTable(const Digraph& g, std::span<const int> delay, std::span<const NodeId> pinned)
      : g_(g),
        delay_(delay),
        pinned_(pinned),
        exact_(g.num_nodes() <= kExactRetimingLimit) {
    TS_CHECK(static_cast<int>(delay_.size()) == g_.num_nodes(), "one delay per node required");
  }

  std::optional<std::vector<int>> feasible(std::int64_t c);
  RetimeResult min_period();

 private:
  /// One reachable pair (u, v) of row u, int32 to halve the n² table.
  struct Pair {
    NodeId v;
    std::int32_t w;  // W(u,v)
    std::int32_t d;  // D(u,v)
  };

  void build();
  std::optional<std::vector<int>> solve_exact(std::int64_t c);
  std::optional<std::vector<int>> solve_conservative(std::int64_t c) const;

  const Digraph& g_;
  std::span<const int> delay_;
  std::span<const NodeId> pinned_;
  bool exact_ = false;
  bool built_ = false;
  std::vector<std::vector<Pair>> rows_;  // rows_[u]: v ascending
};

std::optional<std::vector<int>> RetimingTable::feasible(std::int64_t c) {
  TS_CHECK(c >= 0, "target period must be non-negative");
  for (const int d : delay_) {
    if (d > c) return std::nullopt;  // a single node already exceeds the period
  }
  return exact_ ? solve_exact(c) : solve_conservative(c);
}

/// W(u,v)/D(u,v) from per-source lexicographic Dijkstra: O(V E log V + V^2),
/// once per table.
void RetimingTable::build() {
  const int n = g_.num_nodes();
  // Lexicographic distance: (registers, -delay-sum-of-heads).
  struct Dist {
    std::int64_t w;
    std::int64_t neg_d;
  };
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
  constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
  rows_.resize(static_cast<std::size_t>(n));
  std::vector<Dist> dist(static_cast<std::size_t>(n));
  using Entry = std::tuple<std::int64_t, std::int64_t, NodeId>;  // (w, -d, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  const auto offer = [&](NodeId to, std::int64_t w, std::int64_t neg_d) {
    Dist& best = dist[static_cast<std::size_t>(to)];
    if (w < best.w || (w == best.w && neg_d < best.neg_d)) {
      best = Dist{w, neg_d};
      queue.emplace(w, neg_d, to);
    }
  };
  for (NodeId u = 0; u < n; ++u) {
    // Dijkstra from u; the source distance stays "unvisited" so that cycles
    // back to u produce a genuine W(u,u)/D(u,u).
    std::fill(dist.begin(), dist.end(), Dist{kInf, 0});
    for (const EdgeId e : g_.fanout_edges(u)) {
      const auto& edge = g_.edge(e);
      offer(edge.to, edge.weight, -static_cast<std::int64_t>(delay_[static_cast<std::size_t>(edge.to)]));
    }
    while (!queue.empty()) {
      const auto [w, neg_d, v] = queue.top();
      queue.pop();
      if (dist[static_cast<std::size_t>(v)].w != w ||
          dist[static_cast<std::size_t>(v)].neg_d != neg_d) {
        continue;  // stale entry
      }
      for (const EdgeId e : g_.fanout_edges(v)) {
        const auto& edge = g_.edge(e);
        offer(edge.to, w + edge.weight,
              neg_d - static_cast<std::int64_t>(delay_[static_cast<std::size_t>(edge.to)]));
      }
    }
    std::vector<Pair>& row = rows_[static_cast<std::size_t>(u)];
    row.reserve(static_cast<std::size_t>(
        std::count_if(dist.begin(), dist.end(), [&](const Dist& d) { return d.w < kInf; })));
    for (NodeId v = 0; v < n; ++v) {
      const Dist& d = dist[static_cast<std::size_t>(v)];
      if (d.w >= kInf) continue;
      const std::int64_t total_delay = -d.neg_d + delay_[static_cast<std::size_t>(u)];
      TS_CHECK(d.w <= kInt32Max && total_delay <= kInt32Max, "retiming W/D exceed int32");
      row.push_back({v, static_cast<std::int32_t>(d.w), static_cast<std::int32_t>(total_delay)});
    }
  }
  built_ = true;
}

/// Exact retiming feasibility via Leiserson–Saxe difference constraints,
/// Bellman–Ford on
///   r(u) - r(v) <= w(e)                                    (legality)
///   r(p) = r(q)                                            (pinned nodes share a lag)
///   r(u) - r(v) <= W(u,v) - 1                              (whenever D(u,v) > c)
/// in O(V * #constraints).
std::optional<std::vector<int>> RetimingTable::solve_exact(std::int64_t c) {
  const int n = g_.num_nodes();
  if (!built_) build();

  // Difference-constraint edges: r(u) - r(v) <= bound  ==  arc v -> u, bound.
  // The order (edges, pinned pairs, then W/D pairs by u then v) fixes the
  // Bellman–Ford lags. The vector is reserved to its exact size: growing it
  // would double the solve's peak memory.
  struct Constraint {
    NodeId u;
    NodeId v;
    std::int32_t bound;
  };
  std::size_t count = static_cast<std::size_t>(g_.num_edges()) +
                      2 * (pinned_.empty() ? 0 : pinned_.size() - 1);
  for (const std::vector<Pair>& row : rows_) {
    count += static_cast<std::size_t>(
        std::count_if(row.begin(), row.end(), [&](const Pair& p) { return p.d > c; }));
  }
  std::vector<Constraint> constraints;
  constraints.reserve(count);
  for (EdgeId e = 0; e < g_.num_edges(); ++e) {
    const auto& edge = g_.edge(e);
    constraints.push_back({edge.from, edge.to, static_cast<std::int32_t>(edge.weight)});
  }
  for (std::size_t i = 1; i < pinned_.size(); ++i) {
    constraints.push_back({pinned_[i - 1], pinned_[i], 0});
    constraints.push_back({pinned_[i], pinned_[i - 1], 0});
  }
  for (NodeId u = 0; u < n; ++u) {
    for (const Pair& p : rows_[static_cast<std::size_t>(u)]) {
      if (p.d > c) constraints.push_back({u, p.v, p.w - 1});
    }
  }

  // Bellman–Ford from a virtual all-zero source; negative cycle = infeasible.
  std::vector<std::int64_t> r(static_cast<std::size_t>(n), 0);
  for (int round = 0; round <= n; ++round) {
    bool relaxed = false;
    for (const Constraint& cst : constraints) {
      const std::int64_t cand = r[static_cast<std::size_t>(cst.v)] + cst.bound;
      if (cand < r[static_cast<std::size_t>(cst.u)]) {
        r[static_cast<std::size_t>(cst.u)] = cand;
        relaxed = true;
      }
    }
    if (!relaxed) {
      const std::int64_t base = pinned_.empty() ? 0 : r[static_cast<std::size_t>(pinned_[0])];
      std::vector<int> result(static_cast<std::size_t>(n));
      for (NodeId v = 0; v < n; ++v) {
        result[static_cast<std::size_t>(v)] = static_cast<int>(r[static_cast<std::size_t>(v)] - base);
      }
      // Safety: the retimed graph must be legal and meet the period.
      const auto at = arrival_times(g_, delay_, result);
      if (!at.has_value()) return std::nullopt;
      for (const std::int64_t a : *at) {
        if (a > c) return std::nullopt;
      }
      return result;
    }
  }
  return std::nullopt;
}

std::optional<std::vector<int>> RetimingTable::solve_conservative(std::int64_t c) const {
  const int n = g_.num_nodes();
  std::vector<bool> is_pinned(static_cast<std::size_t>(n), false);
  for (const NodeId v : pinned_) is_pinned[static_cast<std::size_t>(v)] = true;

  std::vector<int> r(static_cast<std::size_t>(n), 0);
  // FEAS with pinned I/O: violators increment their lag; pinned nodes never
  // move. A zero-weight successor of a violator violates too, so the only
  // way a weight can go negative is an increment against a pinned head —
  // which proves that lag exceeded its legal maximum, hence infeasibility.
  // (With the I/O pinned, solutions requiring negative internal lags are
  // unreachable; pipelining — extra registers at the PI/PO boundary, see
  // pipeline.hpp — is the transformation that restores that headroom.)
  for (int round = 0; round <= n; ++round) {
    const auto at = arrival_times(g_, delay_, r);
    if (!at.has_value()) return std::nullopt;  // zero-weight cycle appeared
    bool violated = false;
    bool any_movable = false;
    for (NodeId v = 0; v < n; ++v) {
      if ((*at)[static_cast<std::size_t>(v)] > c) {
        violated = true;
        if (!is_pinned[static_cast<std::size_t>(v)]) {
          ++r[static_cast<std::size_t>(v)];
          any_movable = true;
        }
      }
    }
    if (!violated) return r;
    if (!any_movable) return std::nullopt;  // only pinned nodes violate
    for (EdgeId e = 0; e < g_.num_edges(); ++e) {
      const auto& edge = g_.edge(e);
      if (edge.weight + r[static_cast<std::size_t>(edge.to)] -
              r[static_cast<std::size_t>(edge.from)] <
          0) {
        return std::nullopt;  // lag exceeded the legal maximum
      }
    }
  }
  return std::nullopt;
}

RetimeResult RetimingTable::min_period() {
  std::int64_t hi = clock_period(g_, delay_);
  std::int64_t lo = 0;
  for (const int d : delay_) lo = std::max<std::int64_t>(lo, d);
  RetimeResult best{hi, std::vector<int>(static_cast<std::size_t>(g_.num_nodes()), 0)};
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (auto r = feasible(mid)) {
      best = RetimeResult{mid, std::move(*r)};
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return best;
}

}  // namespace

std::optional<std::vector<int>> feasible_retiming(const Digraph& g, std::span<const int> delay,
                                                  std::int64_t c, std::span<const NodeId> pinned) {
  return RetimingTable(g, delay, pinned).feasible(c);
}

RetimeResult min_period_retiming(const Digraph& g, std::span<const int> delay,
                                 std::span<const NodeId> pinned) {
  return RetimingTable(g, delay, pinned).min_period();
}

namespace {

std::vector<int> circuit_delays(const Circuit& c) {
  std::vector<int> delay(static_cast<std::size_t>(c.num_nodes()));
  for (NodeId v = 0; v < c.num_nodes(); ++v) delay[static_cast<std::size_t>(v)] = c.delay(v);
  return delay;
}

std::vector<NodeId> circuit_pinned(const Circuit& c) {
  std::vector<NodeId> pinned(c.pis().begin(), c.pis().end());
  pinned.insert(pinned.end(), c.pos().begin(), c.pos().end());
  return pinned;
}

}  // namespace

std::int64_t circuit_clock_period(const Circuit& c) {
  return clock_period(c.to_digraph(), circuit_delays(c));
}

void apply_retiming(Circuit& c, std::span<const int> r) {
  TS_CHECK(static_cast<int>(r.size()) == c.num_nodes(), "one lag per node required");
  for (EdgeId e = 0; e < c.num_edges(); ++e) {
    const auto& edge = c.edge(e);
    const int w = edge.weight + r[static_cast<std::size_t>(edge.to)] -
                  r[static_cast<std::size_t>(edge.from)];
    TS_CHECK(w >= 0, "retiming drives edge weight negative");
    c.set_edge_weight(e, w);
  }
}

std::int64_t retime_min_period(Circuit& c) {
  const RetimeResult result =
      min_period_retiming(c.to_digraph(), circuit_delays(c), circuit_pinned(c));
  apply_retiming(c, result.r);
  return result.period;
}

}  // namespace turbosyn
