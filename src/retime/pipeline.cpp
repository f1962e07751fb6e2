#include "retime/pipeline.hpp"

#include <algorithm>

#include "base/check.hpp"
#include "graph/scc.hpp"

namespace turbosyn {
namespace {

/// ceil(a / b) for b > 0.
std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return a >= 0 ? (a + b - 1) / b : -(-a / b);
}

}  // namespace

void pipeline_inputs(Circuit& c, int stages) {
  TS_CHECK(stages >= 0, "pipeline stage count must be non-negative");
  if (stages == 0) return;
  for (const NodeId pi : c.pis()) {
    for (const EdgeId e : c.fanout_edges(pi)) {
      c.set_edge_weight(e, c.edge(e).weight + stages);
    }
  }
}

void pipeline_outputs(Circuit& c, int stages) {
  TS_CHECK(stages >= 0, "pipeline stage count must be non-negative");
  if (stages == 0) return;
  for (const NodeId po : c.pos()) {
    for (const EdgeId e : c.fanin_edges(po)) {
      c.set_edge_weight(e, c.edge(e).weight + stages);
    }
  }
}

PipelineResult pipeline_and_retime(const Circuit& c, const Rational& mdr) {
  PipelineResult result;
  const std::int64_t period = std::max<std::int64_t>(1, mdr.ceil());
  result.period = period;

  // Longest paths from the PIs (label 0). Every other node starts at minus
  // the total delay: no path from a node no PI reaches can then lift a label
  // above 0, because with no positive-cost cycle a path gains at most the
  // total delay. Gauss–Seidel rounds in topological order of the
  // register-free subgraph settle every register-free path per round.
  const Digraph g = c.to_digraph();
  const int n = c.num_nodes();
  std::int64_t total_delay = 0;
  for (NodeId v = 0; v < n; ++v) total_delay += c.delay(v);
  std::vector<std::int64_t> label(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    TS_CHECK(c.delay(v) <= period, "a node's delay exceeds the clock period");
    label[static_cast<std::size_t>(v)] = c.is_pi(v) ? 0 : -total_delay;
  }
  const std::vector<NodeId> order =
      topological_order(g, [&](EdgeId e) { return g.edge(e).weight != 0; });
  for (bool changed = true; changed;) {
    TS_CHECK(result.label_rounds <= n, "a cycle's delay-to-register ratio exceeds the period");
    ++result.label_rounds;
    changed = false;
    for (const NodeId v : order) {
      std::int64_t& lv = label[static_cast<std::size_t>(v)];
      for (const EdgeId e : g.fanin_edges(v)) {
        const Digraph::Edge& edge = g.edge(e);
        const std::int64_t cand =
            label[static_cast<std::size_t>(edge.from)] + c.delay(v) - period * edge.weight;
        if (cand > lv) {
          lv = cand;
          changed = true;
        }
      }
    }
  }

  std::int64_t longest = 0;
  for (const NodeId po : c.pos()) longest = std::max(longest, label[static_cast<std::size_t>(po)]);
  result.stages = longest <= period ? 0 : static_cast<int>(ceil_div(longest - period, 2 * period));

  // Pipelining lowers an internal label by c·s and a PO label by 2c·s; a
  // node's lag is then ceil(label/c) - 1. PIs and POs take lag 0: raising a
  // PO's lag (its label is <= c) only adds registers before it, and a PI at
  // lag 0 still leaves every fanout edge legal because gates have delay >= 1.
  result.retiming.assign(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    if (c.is_pi(v) || c.is_po(v)) continue;
    result.retiming[static_cast<std::size_t>(v)] =
        static_cast<int>(ceil_div(label[static_cast<std::size_t>(v)], period) - 1 - result.stages);
  }
  return result;
}

}  // namespace turbosyn
