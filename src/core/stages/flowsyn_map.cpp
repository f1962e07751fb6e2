#include "core/stages/flowsyn_map.hpp"

#include <utility>

#include "mapping/flowmap.hpp"
#include "mapping/seq_split.hpp"

namespace turbosyn {

void FlowSynMapStage::run(FlowContext& ctx) {
  if (ctx.options.budget.interrupted()) {
    // Stopped before the combinational mapping even started: the identity
    // mapping is the anytime answer, as in the ratio searches.
    ctx.result.status = combine_status(ctx.result.status, ctx.options.budget.check());
    ctx.mapped = ctx.input;
    ctx.count("identity_fallback", 1);
    return;
  }
  const SequentialSplit split = split_at_registers(ctx.input);
  FlowMapOptions fopts;
  fopts.k = ctx.options.k;
  fopts.enable_decomposition = true;
  fopts.cmax = ctx.options.cmax;
  fopts.min_cut_height_span = ctx.options.height_span;
  const FlowMapResult mapping = flowmap(split.comb, fopts);
  const Circuit mapped_comb = generate_mapped_circuit(split.comb, mapping, fopts);
  Circuit merged = merge_registers(ctx.input, split, mapped_comb);
  ctx.count("luts", merged.num_gates());
  ctx.mapped = std::move(merged);
}

}  // namespace turbosyn
