#include "retime/pipeline.hpp"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "base/check.hpp"
#include "retime/retiming.hpp"

namespace turbosyn {

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

namespace {

/// ceil(a / b) for b > 0.
std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return a >= 0 ? (a + b - 1) / b : -(-a / b);
}

/// Longest paths from the PIs under edge cost d(to) - period·w(e), and the
/// largest PO label.
struct Labels {
  std::vector<std::int64_t> label;
  std::int64_t longest = 0;
};

/// One label pass. Every non-PI starts at minus the total delay: no path from
/// a node no PI reaches can then lift a label above 0, because with no
/// positive-cost cycle a path gains at most the total delay. Gauss–Seidel
/// rounds in topological order of the register-free subgraph settle every
/// register-free path per round.
Labels label_pass(const Circuit& c, std::span<const NodeId> order,
                  std::int64_t period, PipelineResult& stats) {
  const int n = c.num_nodes();
  std::int64_t total_delay = 0;
  for (NodeId v = 0; v < n; ++v) total_delay += c.delay(v);
  Labels out;
  out.label.resize(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    TS_CHECK(c.delay(v) <= period, "a node's delay exceeds the clock period");
    out.label[static_cast<std::size_t>(v)] = c.is_pi(v) ? 0 : -total_delay;
  }
  ++stats.label_passes;
  int rounds = 0;
  for (bool changed = true; changed;) {
    TS_CHECK(rounds++ <= n, "a cycle's delay-to-register ratio exceeds the period");
    ++stats.label_rounds;
    changed = false;
    for (const NodeId v : order) {
      std::int64_t& lv = out.label[static_cast<std::size_t>(v)];
      for (const EdgeId e : c.fanin_edges(v)) {
        const Circuit::Edge& edge = c.edge(e);
        const std::int64_t cand =
            out.label[static_cast<std::size_t>(edge.from)] + c.delay(v) - period * edge.weight;
        if (cand > lv) {
          lv = cand;
          changed = true;
        }
      }
    }
  }
  for (const NodeId po : c.pos()) {
    out.longest = std::max(out.longest, out.label[static_cast<std::size_t>(po)]);
  }
  return out;
}

/// Pipelining lowers an internal label by c·s and a PO label by 2c·s; a
/// node's lag is then ceil(label/c) - 1. PIs and POs take lag 0: raising a
/// PO's lag (its label is <= c) only adds registers before it, and a PI at
/// lag 0 still leaves every fanout edge legal because gates have delay >= 1.
void set_witness(const Circuit& c, const Labels& labels, PipelineResult& result) {
  result.retiming.assign(static_cast<std::size_t>(c.num_nodes()), 0);
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    if (c.is_pi(v) || c.is_po(v)) continue;
    result.retiming[static_cast<std::size_t>(v)] = static_cast<int>(
        ceil_div(labels.label[static_cast<std::size_t>(v)], result.period) - 1 - result.stages);
  }
}

}  // namespace

PipelineResult pipeline_and_retime(const Circuit& c, const Rational& mdr) {
  PipelineResult result;
  result.period = std::max<std::int64_t>(1, mdr.ceil());
  const Labels labels = label_pass(c, combinational_order(c), result.period, result);
  result.stages = labels.longest <= result.period
                      ? 0
                      : static_cast<int>(ceil_div(labels.longest - result.period, 2 * result.period));
  set_witness(c, labels, result);
  return result;
}

PipelineResult retime_without_pipelining(const Circuit& c, const Rational& mdr) {
  PipelineResult result;
  const std::vector<NodeId> order = combinational_order(c);
  std::int64_t lo = std::max<std::int64_t>(1, mdr.ceil());
  // The un-retimed period is reachable (all-zero lags), and never below
  // ceil(mdr) once the network has a gate.
  std::int64_t hi = std::max(lo, circuit_clock_period(c));
  Labels best = label_pass(c, order, hi, result);
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    Labels labels = label_pass(c, order, mid, result);
    if (labels.longest <= mid) {
      hi = mid;
      best = std::move(labels);
    } else {
      lo = mid + 1;
    }
  }
  result.period = hi;
  set_witness(c, best, result);
  return result;
}

}  // namespace turbosyn
