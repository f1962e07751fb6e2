#include "retime/retiming.hpp"

#include <algorithm>
#include <vector>

#include "base/check.hpp"

namespace turbosyn {

std::int64_t circuit_clock_period(const Circuit& c) {
  std::vector<NodeId> order;
  try {
    order = combinational_order(c);
  } catch (const Error&) {
    throw Error("combinational loop: clock period is unbounded");
  }
  // Arrival times over the zero-weight subgraph.
  std::vector<std::int64_t> at(static_cast<std::size_t>(c.num_nodes()), 0);
  std::int64_t period = 0;
  for (const NodeId v : order) {
    std::int64_t best = 0;
    for (const EdgeId e : c.fanin_edges(v)) {
      if (c.edge(e).weight != 0) continue;
      best = std::max(best, at[static_cast<std::size_t>(c.edge(e).from)]);
    }
    at[static_cast<std::size_t>(v)] = best + c.delay(v);
    period = std::max(period, at[static_cast<std::size_t>(v)]);
  }
  return period;
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
