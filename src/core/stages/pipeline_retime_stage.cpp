#include "core/stages/pipeline_retime_stage.hpp"

#include <utility>

#include "retime/pipeline.hpp"
#include "retime/retiming.hpp"

namespace turbosyn {

void PipelineRetimeStage::run(FlowContext& ctx) {
  FlowResult& result = ctx.result;
  Circuit mapped = std::move(*ctx.mapped);
  ctx.mapped.reset();
  if (kind_ == Kind::kPipelineRetime) {
    if (ctx.options.pipeline) {
      // Measure the achievable period on a copy: `mapped` stays un-retimed
      // so it is cycle-accurate equivalent to the input from the all-zero
      // state.
      Circuit pipelined = mapped;
      // PackStage measured the MDR of this very network.
      const PipelineResult p =
          pipeline_and_retime(pipelined, result.exact_mdr, 64, &ctx.options.budget);
      result.period = p.period;
      result.pipeline_stages = p.stages;
      result.status = combine_status(result.status, p.status);
      ctx.count("retime_configs", p.configs_tried);
      ctx.count("retime_wd_builds", p.work.wd_builds);
      ctx.count("retime_constraints", p.work.constraints);
      ctx.count("retime_bf_rounds", p.work.bf_rounds);
      ctx.count("retime_conservative", p.exact ? 0 : 1);
      ctx.count("pipeline_stages", p.stages);
    }
    result.mapped = std::move(mapped);
  } else {
    result.period = retime_min_period(mapped);
    result.mapped = std::move(mapped);
  }
  if (final_budget_check_) {
    result.status = combine_status(result.status, ctx.options.budget.check());
  }
}

}  // namespace turbosyn
