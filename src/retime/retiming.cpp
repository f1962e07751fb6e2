#include "retime/retiming.hpp"

#include <algorithm>
#include <vector>

#include "base/check.hpp"
#include "graph/scc.hpp"

namespace turbosyn {

std::int64_t clock_period(const Digraph& g, std::span<const int> delay) {
  TS_CHECK(static_cast<int>(delay.size()) == g.num_nodes(), "one delay per node required");
  std::vector<NodeId> order;
  try {
    order = topological_order(g, [&](EdgeId e) { return g.edge(e).weight != 0; });
  } catch (const Error&) {
    throw Error("combinational loop: clock period is unbounded");
  }
  // Arrival times over the zero-weight subgraph.
  std::vector<std::int64_t> at(static_cast<std::size_t>(g.num_nodes()), 0);
  std::int64_t period = 0;
  for (const NodeId v : order) {
    std::int64_t best = 0;
    for (const EdgeId e : g.fanin_edges(v)) {
      if (g.edge(e).weight != 0) continue;
      best = std::max(best, at[static_cast<std::size_t>(g.edge(e).from)]);
    }
    at[static_cast<std::size_t>(v)] = best + delay[static_cast<std::size_t>(v)];
    period = std::max(period, at[static_cast<std::size_t>(v)]);
  }
  return period;
}

std::int64_t circuit_clock_period(const Circuit& c) {
  std::vector<int> delay(static_cast<std::size_t>(c.num_nodes()));
  for (NodeId v = 0; v < c.num_nodes(); ++v) delay[static_cast<std::size_t>(v)] = c.delay(v);
  return clock_period(c.to_digraph(), delay);
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

}  // namespace turbosyn
