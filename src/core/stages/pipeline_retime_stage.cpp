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
      // The claim comes from labels over `mapped`, which stays un-retimed so
      // it is cycle-accurate equivalent to the input from the all-zero state.
      // PackStage measured the MDR of this very network.
      PipelineResult p = pipeline_and_retime(mapped, result.exact_mdr);
      result.period = p.period;
      result.pipeline_stages = p.stages;
      result.retiming = std::move(p.retiming);
      ctx.count("retime_configs", 1);
      ctx.count("retime_label_rounds", p.label_rounds);
      ctx.count("pipeline_stages", p.stages);
    }
    result.mapped = std::move(mapped);
  } else {
    result.period = retime_min_period(mapped);
    // `mapped` itself is retimed, so all-zero lags witness the period.
    result.retiming.assign(static_cast<std::size_t>(mapped.num_nodes()), 0);
    result.mapped = std::move(mapped);
  }
  if (final_budget_check_) {
    result.status = combine_status(result.status, ctx.options.budget.check());
  }
}

}  // namespace turbosyn
