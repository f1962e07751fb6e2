#include "oracle.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <tuple>

#include "base/check.hpp"
#include "retime/retiming.hpp"

namespace turbosyn::oracle {

PositiveCycle find_positive_cycle(const Digraph& g,
                                  const std::function<std::int64_t(EdgeId)>& cost) {
  const int n = g.num_nodes();
  PositiveCycle result;
  if (n == 0) return result;
  std::vector<std::int64_t> dist(static_cast<std::size_t>(n), 0);
  std::vector<EdgeId> parent(static_cast<std::size_t>(n), kNoEdge);
  NodeId touched = kNoNode;
  for (int round = 0; round < n; ++round) {
    touched = kNoNode;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto& edge = g.edge(e);
      const std::int64_t cand = dist[static_cast<std::size_t>(edge.from)] + cost(e);
      if (cand > dist[static_cast<std::size_t>(edge.to)]) {
        dist[static_cast<std::size_t>(edge.to)] = cand;
        parent[static_cast<std::size_t>(edge.to)] = e;
        touched = edge.to;
      }
    }
    if (touched == kNoNode) return result;
  }
  // Still relaxing after n rounds: n parent steps from the last raised node
  // land on the cycle.
  NodeId v = touched;
  for (int i = 0; i < n; ++i) v = g.edge(parent[static_cast<std::size_t>(v)]).from;
  const NodeId start = v;
  result.found = true;
  do {
    const EdgeId e = parent[static_cast<std::size_t>(v)];
    result.edges.push_back(e);
    v = g.edge(e).from;
  } while (v != start);
  std::reverse(result.edges.begin(), result.edges.end());
  return result;
}

namespace {

/// Positive cycle under q·d(to) - p·w(e): a cycle of ratio above p/q, or a
/// zero-register cycle with positive delay.
PositiveCycle cycle_above(const Digraph& g, std::span<const int> delay, const Rational& ratio) {
  return find_positive_cycle(g, [&](EdgeId e) {
    const auto& edge = g.edge(e);
    return ratio.den() * delay[static_cast<std::size_t>(edge.to)] - ratio.num() * edge.weight;
  });
}

}  // namespace

bool has_cycle_above_ratio(const Digraph& g, std::span<const int> delay, const Rational& ratio) {
  return cycle_above(g, delay, ratio).found;
}

CycleRatioResult max_delay_to_register_ratio(const Digraph& g, std::span<const int> delay) {
  CycleRatioResult result;
  if (!has_cycle_above_ratio(g, delay, Rational(0))) return result;
  // Binary search on the integer part, then jump from cycle to cycle.
  std::int64_t lo = 0;
  std::int64_t hi = 1;
  for (const int d : delay) hi += d;
  while (lo + 1 < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    (has_cycle_above_ratio(g, delay, Rational(mid)) ? lo : hi) = mid;
  }
  for (PositiveCycle c = cycle_above(g, delay, Rational(lo)); c.found;
       c = cycle_above(g, delay, result.ratio)) {
    std::int64_t d = 0;
    std::int64_t w = 0;
    for (const EdgeId e : c.edges) {
      d += delay[static_cast<std::size_t>(g.edge(e).to)];
      w += g.edge(e).weight;
    }
    TS_CHECK(w > 0, "combinational loop: the MDR ratio is unbounded");
    result.ratio = Rational(d, w);
    result.critical_cycle = c.edges;
  }
  return result;
}

std::vector<int> circuit_delays(const Circuit& c) {
  std::vector<int> delay(static_cast<std::size_t>(c.num_nodes()));
  for (NodeId v = 0; v < c.num_nodes(); ++v) delay[static_cast<std::size_t>(v)] = c.delay(v);
  return delay;
}

std::vector<NodeId> circuit_io(const Circuit& c) {
  std::vector<NodeId> io(c.pis().begin(), c.pis().end());
  io.insert(io.end(), c.pos().begin(), c.pos().end());
  return io;
}

CycleRatioResult circuit_mdr(const Circuit& c) {
  return max_delay_to_register_ratio(c.to_digraph(), circuit_delays(c));
}

namespace {

constexpr std::int32_t kNoPath = std::numeric_limits<std::int32_t>::max();

/// Leiserson–Saxe W(u, v) (fewest registers on a u ⇝ v path) and D(u, v)
/// (largest delay among those paths, both ends included), row-major.
struct WdMatrices {
  int n = 0;
  std::vector<std::int32_t> w;
  std::vector<std::int32_t> d;
};

WdMatrices wd_matrices(const Digraph& g, std::span<const int> delay) {
  WdMatrices m;
  m.n = g.num_nodes();
  const auto n = static_cast<std::size_t>(m.n);
  m.w.assign(n * n, kNoPath);
  m.d.assign(n * n, 0);
  // Dijkstra under the lexicographic weight (w(e), -d(head)).
  using Entry = std::tuple<std::int64_t, std::int64_t, NodeId>;
  for (NodeId u = 0; u < m.n; ++u) {
    std::vector<std::pair<std::int64_t, std::int64_t>> best(
        n, {std::numeric_limits<std::int64_t>::max(), 0});
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    best[static_cast<std::size_t>(u)] = {0, -delay[static_cast<std::size_t>(u)]};
    queue.emplace(0, -delay[static_cast<std::size_t>(u)], u);
    while (!queue.empty()) {
      const auto [w, neg_d, v] = queue.top();
      queue.pop();
      if (best[static_cast<std::size_t>(v)] != std::pair{w, neg_d}) continue;
      m.w[static_cast<std::size_t>(u) * n + static_cast<std::size_t>(v)] =
          static_cast<std::int32_t>(w);
      m.d[static_cast<std::size_t>(u) * n + static_cast<std::size_t>(v)] =
          static_cast<std::int32_t>(-neg_d);
      for (const EdgeId e : g.fanout_edges(v)) {
        const auto& edge = g.edge(e);
        const std::pair<std::int64_t, std::int64_t> cand{
            w + edge.weight, neg_d - delay[static_cast<std::size_t>(edge.to)]};
        if (cand < best[static_cast<std::size_t>(edge.to)]) {
          best[static_cast<std::size_t>(edge.to)] = cand;
          queue.emplace(cand.first, cand.second, edge.to);
        }
      }
    }
  }
  return m;
}

/// FEAS on the difference constraints
///   r(u) - r(v) <= w(e)            for every edge e(u, v)
///   r(u) - r(v) <= W(u, v) - 1     whenever D(u, v) > c
///   r(p) = r(q)                    for pinned p, q
/// by Bellman–Ford from an all-zero start.
std::optional<std::vector<int>> feas(const Digraph& g, std::span<const int> delay,
                                     const WdMatrices& m, std::int64_t c,
                                     std::span<const NodeId> pinned) {
  for (const int d : delay) {
    if (d > c) return std::nullopt;
  }
  struct Constraint {
    NodeId u;
    NodeId v;
    std::int64_t bound;  // r(u) - r(v) <= bound
  };
  std::vector<Constraint> constraints;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    constraints.push_back({g.edge(e).from, g.edge(e).to, g.edge(e).weight});
  }
  for (std::size_t i = 1; i < pinned.size(); ++i) {
    constraints.push_back({pinned[i - 1], pinned[i], 0});
    constraints.push_back({pinned[i], pinned[i - 1], 0});
  }
  const auto n = static_cast<std::size_t>(m.n);
  for (NodeId u = 0; u < m.n; ++u) {
    for (NodeId v = 0; v < m.n; ++v) {
      const std::size_t at = static_cast<std::size_t>(u) * n + static_cast<std::size_t>(v);
      if (m.w[at] != kNoPath && m.d[at] > c) constraints.push_back({u, v, m.w[at] - 1});
    }
  }
  std::vector<std::int64_t> r(n, 0);
  for (int round = 0; round <= m.n; ++round) {
    bool relaxed = false;
    for (const Constraint& k : constraints) {
      const std::int64_t cand = r[static_cast<std::size_t>(k.v)] + k.bound;
      if (cand < r[static_cast<std::size_t>(k.u)]) {
        r[static_cast<std::size_t>(k.u)] = cand;
        relaxed = true;
      }
    }
    if (!relaxed) {
      const std::int64_t base = pinned.empty() ? 0 : r[static_cast<std::size_t>(pinned[0])];
      std::vector<int> lags(n);
      for (std::size_t v = 0; v < n; ++v) lags[v] = static_cast<int>(r[v] - base);
      return lags;
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::vector<int>> feasible_retiming(const Digraph& g, std::span<const int> delay,
                                                  std::int64_t c, std::span<const NodeId> pinned) {
  return feas(g, delay, wd_matrices(g, delay), c, pinned);
}

RetimeResult min_period_retiming(const Digraph& g, std::span<const int> delay,
                                 std::span<const NodeId> pinned) {
  const WdMatrices m = wd_matrices(g, delay);
  RetimeResult best{clock_period(g, delay), std::vector<int>(delay.size(), 0)};
  std::int64_t lo = 0;
  for (const int d : delay) lo = std::max<std::int64_t>(lo, d);
  while (lo < best.period) {
    const std::int64_t mid = lo + (best.period - lo) / 2;
    if (auto r = feas(g, delay, m, mid, pinned)) {
      best = RetimeResult{mid, std::move(*r)};
    } else {
      lo = mid + 1;
    }
  }
  return best;
}

std::int64_t retime_min_period(Circuit& c) {
  const RetimeResult result =
      min_period_retiming(c.to_digraph(), circuit_delays(c), circuit_io(c));
  apply_retiming(c, result.r);
  return result.period;
}

}  // namespace turbosyn::oracle
