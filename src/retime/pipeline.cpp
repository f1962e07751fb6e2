#include "retime/pipeline.hpp"

#include <algorithm>

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

PipelineResult pipeline_and_retime(Circuit& c, const Rational& mdr, int max_stages,
                                   const RunBudget* budget) {
  const std::int64_t floor_target = std::max<std::int64_t>(1, mdr.ceil());

  std::vector<int> delay(static_cast<std::size_t>(c.num_nodes()));
  for (NodeId v = 0; v < c.num_nodes(); ++v) delay[static_cast<std::size_t>(v)] = c.delay(v);
  std::vector<NodeId> pinned(c.pis().begin(), c.pis().end());
  pinned.insert(pinned.end(), c.pos().begin(), c.pos().end());
  // One W/D table answers the fallback and every (target, depth) below.
  RetimingTable table(c.to_digraph(), delay, pinned, c.pis(), c.pos(), max_stages);

  // Try the MDR bound first, then relax the target period; for each target,
  // grow the pipeline depth geometrically. The fallback (no pipelining,
  // plain min-period retiming) always succeeds.
  PipelineResult result;
  result.exact = table.exact();
  const auto stopped = [&] {
    if (budget == nullptr || !budget->interrupted()) return false;
    result.status = budget->check();
    return true;
  };
  const RetimeResult fallback = table.min_period();
  for (std::int64_t target = floor_target;
       target < fallback.period && result.status == Status::kOk; ++target) {
    for (int stages = 1; stages <= max_stages; stages *= 2) {
      if (stopped()) break;
      ++result.configs_tried;
      if (auto r = table.feasible(target, stages)) {
        pipeline_inputs(c, stages);
        pipeline_outputs(c, stages);
        apply_retiming(c, *r);
        result.period = target;
        result.stages = stages;
        result.work = table.work();
        return result;
      }
    }
  }
  apply_retiming(c, fallback.r);
  result.period = fallback.period;
  result.work = table.work();
  return result;
}

}  // namespace turbosyn
