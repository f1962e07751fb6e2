#include "core/stages/pack_stage.hpp"

#include <algorithm>
#include <utility>

#include "mapping/dedupe.hpp"
#include "mapping/pack.hpp"
#include "retime/howard.hpp"

namespace turbosyn {

void PackStage::run(FlowContext& ctx) {
  Circuit mapped = std::move(*ctx.mapped);
  if (ctx.options.dedupe) mapped = dedupe_luts(mapped);
  if (ctx.options.pack) mapped = pack_luts(mapped, ctx.options.k);
  ctx.result.luts = mapped.num_gates();
  ctx.result.ffs = mapped.num_ffs_shared();
  ctx.result.exact_mdr = circuit_mdr_howard(mapped).ratio;
  if (phi_from_mdr_) {
    // No ratio search ran; report the ceiling of the measured MDR, with
    // combinational circuits (MDR 0) reported as their pipelined period 1.
    ctx.result.phi = static_cast<int>(std::max<std::int64_t>(1, ctx.result.exact_mdr.ceil()));
  }
  ctx.count("luts", ctx.result.luts);
  ctx.count("ffs", ctx.result.ffs);
  ctx.mapped = std::move(mapped);
}

}  // namespace turbosyn
