#include "core/stages/ub_probe.hpp"

#include <algorithm>

#include "base/check.hpp"
#include "retime/howard.hpp"
#include "retime/retiming.hpp"

namespace turbosyn {

void UbProbeStage::run(FlowContext& ctx) {
  switch (kind_) {
    case Kind::kIdentityMdr: {
      // The identity mapping (one LUT per gate) is always valid, so
      // ceil(MDR of the input) bounds the achievable ratio.
      const Rational mdr = circuit_mdr_howard(ctx.input).ratio;
      ctx.ub = static_cast<int>(std::max<std::int64_t>(1, mdr.ceil()));
      break;
    }
    case Kind::kClockPeriod:
      // The unmapped circuit's clock period (identity mapping, no retiming)
      // is always achievable.
      ctx.ub = static_cast<int>(std::max<std::int64_t>(1, circuit_clock_period(ctx.input)));
      break;
    case Kind::kFixed:
      TS_CHECK(fixed_ub_ >= 1, "fixed upper bound must be >= 1");
      ctx.ub = fixed_ub_;
      break;
  }
  ctx.count("upper_bound", *ctx.ub);
}

}  // namespace turbosyn
