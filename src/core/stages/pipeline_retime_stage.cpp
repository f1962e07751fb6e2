#include "core/stages/pipeline_retime_stage.hpp"

#include <utility>

#include "retime/pipeline.hpp"

namespace turbosyn {

void PipelineRetimeStage::run(FlowContext& ctx) {
  FlowResult& result = ctx.result;
  // The claim comes from labels over the mapped network, which stays
  // un-retimed so it is cycle-accurate equivalent to the input from the
  // all-zero state. PackStage measured the MDR of this very network.
  if (kind_ == Kind::kRetimeOnly || ctx.options.pipeline) {
    PipelineResult p = kind_ == Kind::kRetimeOnly
                           ? retime_without_pipelining(*ctx.mapped, result.exact_mdr)
                           : pipeline_and_retime(*ctx.mapped, result.exact_mdr);
    result.period = p.period;
    result.pipeline_stages = p.stages;
    result.retiming = std::move(p.retiming);
    ctx.count("retime_configs", p.label_passes);
    ctx.count("retime_label_rounds", p.label_rounds);
    ctx.count("pipeline_stages", p.stages);
  }
  result.mapped = std::move(*ctx.mapped);
  ctx.mapped.reset();
  if (final_budget_check_) {
    result.status = combine_status(result.status, ctx.options.budget.check());
  }
}

}  // namespace turbosyn
