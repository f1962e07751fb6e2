#include "core/stages/phi_search.hpp"

#include "base/check.hpp"
#include "base/logging.hpp"

namespace turbosyn {

void PhiSearchStage::run(FlowContext& ctx) {
  TS_CHECK(ctx.ub.has_value(), "phi search needs an upper bound");
  const int ub = *ctx.ub;
  ctx.label_mode = config_.mode;
  const LabelOptions lopts = ctx.options.label_options(config_.mode == LabelMode::kDecomp);
  LabelEngine engine(ctx.input, lopts);
  FlowResult& result = ctx.result;

  const auto interrupted_before_probe = [&] {
    if (!lopts.budget.interrupted()) return false;
    result.status = combine_status(result.status, lopts.budget.check());
    return true;
  };

  if (config_.schedule == Schedule::kDescending) {
    TS_CHECK(config_.seed != nullptr && config_.seed->feasible,
             "descending scan needs a feasible certificate at the upper bound");
    ctx.labels = *config_.seed;
    ctx.have_labels = true;
    result.status = combine_status(result.status, config_.seed->status);
    // Record the imported certificate: (mode, ub) is settled, never probed.
    ProbeRecord seed_rec;
    seed_rec.phi = ub;
    seed_rec.mode = config_.mode;
    seed_rec.outcome = classify_probe(*config_.seed);
    seed_rec.status = config_.seed->status;
    seed_rec.feasible = true;
    seed_rec.imported = true;
    seed_rec.label_hash = hash_labels(config_.seed->labels);
    seed_rec.max_po_label = config_.seed->max_po_label;
    ctx.ledger.record(std::move(seed_rec));

    int hi = ub - 1;
    while (hi >= 1) {
      if (interrupted_before_probe()) break;
      LabelResult r = ledger_probe(ctx, engine, config_.mode, hi);
      result.stats.accumulate(r.stats);
      result.status = combine_status(result.status, r.status);
      TS_DEBUG("phi=" << hi << (r.feasible ? " feasible" : " infeasible")
                      << " sweeps=" << r.stats.sweeps);
      if (!r.feasible) break;  // certificate, budget verdict, or interrupt
      ctx.labels = std::move(r);
      --hi;
    }
    result.phi = hi + 1;
    return;
  }

  int lo = 1;
  int hi = ub;
  bool have_best = false;
  while (lo <= hi) {
    if (interrupted_before_probe()) break;
    const int mid = lo + (hi - lo) / 2;
    LabelResult r = ledger_probe(ctx, engine, config_.mode, mid);
    result.stats.accumulate(r.stats);
    result.status = combine_status(result.status, r.status);
    TS_DEBUG("phi=" << mid << (r.feasible ? " feasible" : " infeasible")
                    << " sweeps=" << r.stats.sweeps);
    if (is_interrupt(r.status)) break;  // labels did not converge: unusable
    const bool accepted =
        r.feasible && (!config_.period_objective || r.max_po_label <= mid);
    if (accepted) {
      ctx.labels = std::move(r);
      have_best = true;
      hi = mid - 1;
    } else {
      lo = mid + 1;
    }
  }
  if (!have_best) {
    // Only a budget can make the always-realizable upper bound "infeasible";
    // downstream stages fall back to the identity mapping at that bound.
    const char* msg = config_.period_objective ? "clock-period upper bound was not feasible"
                                               : "upper bound ratio was not feasible";
    TS_CHECK(result.status != Status::kOk, msg);
    result.phi = ub;
    ctx.have_labels = false;
    return;
  }
  ctx.have_labels = true;
  // Bisection invariant: hi + 1 is the smallest accepted φ.
  result.phi = hi + 1;
}

}  // namespace turbosyn
