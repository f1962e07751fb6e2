#include "core/engines.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <utility>

#include "base/check.hpp"
#include "base/logging.hpp"
#include "base/trace.hpp"
#include "core/driver.hpp"
#include "core/mapgen.hpp"
#include "mapping/flowmap.hpp"
#include "mapping/lut_network.hpp"
#include "mapping/seq_split.hpp"
#include "retime/howard.hpp"
#include "retime/pipeline.hpp"
#include "retime/retiming.hpp"

namespace turbosyn {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// True (and the budget verdict folded into the status) when the budget
/// fired before the next probe.
bool interrupted_before_probe(FlowContext& ctx, const LabelOptions& lopts) {
  if (!lopts.budget.interrupted()) return false;
  ctx.result.status = combine_status(ctx.result.status, lopts.budget.check());
  return true;
}

/// The "pack" stage body: structural LUT deduplication and packing on the
/// LUT list (each gated by FlowOptions), the one named build of the mapped
/// network, then its LUT count, register bits and exact MDR.
/// `phi_from_mdr`: flows without a ratio search (FlowSYN-s) report
/// φ = max(1, ceil(exact MDR)).
Circuit pack_mapping(FlowContext& ctx, LutNetwork& net, bool phi_from_mdr) {
  if (ctx.options.dedupe) dedupe_luts(net);
  if (ctx.options.pack) pack_luts(net, ctx.options.k);
  Circuit mapped = net.to_circuit();
  FlowResult& result = ctx.result;
  result.luts = mapped.num_gates();
  result.ffs = mapped.num_ffs_shared();
  result.exact_mdr = circuit_mdr_howard(mapped).ratio;
  if (phi_from_mdr) {
    // Combinational circuits (MDR 0) report their pipelined period 1.
    result.phi = static_cast<int>(std::max<std::int64_t>(1, result.exact_mdr.ceil()));
  }
  ctx.count("luts", result.luts);
  ctx.count("ffs", result.ffs);
  return mapped;
}

/// The "pipeline-retime" stage body: publishes `mapped` un-retimed as
/// FlowResult::mapped (cycle-accurate equivalent to the input from the
/// all-zero state) with the (period, stages) claim read off longest-path
/// labels and FlowResult::retiming as its witness. `retime_only`
/// (clock-period objective): the least period retiming alone reaches, by a
/// binary search over label passes, regardless of FlowOptions::pipeline;
/// otherwise the period and depth pipelining + retiming reach, from one
/// label pass, when FlowOptions::pipeline is set.
void pipeline_retime(FlowContext& ctx, Circuit& mapped, bool retime_only) {
  FlowResult& result = ctx.result;
  // pack_mapping measured the MDR of this very network.
  if (retime_only || ctx.options.pipeline) {
    PipelineResult p = retime_only ? retime_without_pipelining(mapped, result.exact_mdr)
                                   : pipeline_and_retime(mapped, result.exact_mdr);
    result.period = p.period;
    result.pipeline_stages = p.stages;
    result.retiming = std::move(p.retiming);
    ctx.count("retime_configs", p.label_passes);
    ctx.count("retime_label_rounds", p.label_rounds);
    ctx.count("pipeline_stages", p.stages);
  }
  result.mapped = std::move(mapped);
}

/// Plain-label bisection for the smallest accepted φ in [1, ub] over one
/// LabelEngine (probes warm-start from the nearest previously feasible φ).
/// Every probe goes through the ProbeLedger, so no φ is probed twice. Sets
/// FlowResult::phi and returns the winning labels; when stopped before
/// proving any φ, returns nullopt and φ falls back to `ub` (the identity
/// mapping realizes it). `period_objective`: a probe is accepted only when
/// additionally max_po_label <= φ (PO labels bound the un-pipelined period).
std::optional<LabelResult> bisect_phi(FlowContext& ctx, bool period_objective, int ub) {
  const LabelOptions lopts = ctx.options.label_options(/*enable_decomposition=*/false);
  LabelEngine engine(ctx.input, lopts, ctx.input_sccs());
  FlowResult& result = ctx.result;
  std::optional<LabelResult> best;
  int lo = 1;
  int hi = ub;
  while (lo <= hi) {
    if (interrupted_before_probe(ctx, lopts)) break;
    const int mid = lo + (hi - lo) / 2;
    LabelResult r = ledger_probe(ctx, engine, LabelMode::kPlain, mid);
    result.stats.accumulate(r.stats);
    result.status = combine_status(result.status, r.status);
    TS_DEBUG("phi=" << mid << (r.feasible ? " feasible" : " infeasible")
                    << " sweeps=" << r.stats.sweeps);
    if (is_interrupt(r.status)) break;  // labels did not converge: unusable
    if (r.feasible && (!period_objective || r.max_po_label <= mid)) {
      best = std::move(r);
      hi = mid - 1;
    } else {
      lo = mid + 1;
    }
  }
  if (!best) {
    // Only a budget can make the always-realizable upper bound "infeasible".
    TS_CHECK(result.status != Status::kOk,
             (period_objective ? "clock-period upper bound was not feasible"
                               : "upper bound ratio was not feasible"));
    result.phi = ub;
    return std::nullopt;
  }
  // Bisection invariant: hi + 1 is the smallest accepted φ.
  result.phi = hi + 1;
  return best;
}

/// Descending scan ub-1, ub-2, ... from `seed`, labels already proven
/// feasible at φ == ub by another search. The seed enters the ledger as an
/// imported certificate, so ub is never re-probed. Feasibility is monotone
/// in φ, so this finds bisection's minimum while paying for exactly one
/// infeasible probe (the divergence certificate), where bisection would run
/// about half of log2(ub) of them — the dominant cost with decomposition,
/// whose isolation early-exit is unsound and disabled. An interrupt mid-scan
/// keeps the last feasible probe as the anytime answer. A degraded feasible
/// seed is valid: its labels witness feasibility themselves. `memo`
/// receives the engine's decomposition memo for mapping generation.
LabelResult descend_phi(FlowContext& ctx, LabelMode mode, int ub, LabelResult seed,
                        DecompCache& memo) {
  TS_CHECK(seed.feasible, "descending scan needs a feasible certificate at the upper bound");
  const LabelOptions lopts = ctx.options.label_options(mode == LabelMode::kDecomp);
  LabelEngine engine(ctx.input, lopts, ctx.input_sccs());
  FlowResult& result = ctx.result;
  result.status = combine_status(result.status, seed.status);
  ProbeRecord seed_rec;
  seed_rec.phi = ub;
  seed_rec.mode = mode;
  seed_rec.outcome = classify_probe(seed);
  seed_rec.status = seed.status;
  seed_rec.feasible = true;
  seed_rec.imported = true;
  seed_rec.label_hash = hash_labels(seed.labels);
  seed_rec.max_po_label = seed.max_po_label;
  ctx.ledger.record(std::move(seed_rec));

  LabelResult labels = std::move(seed);
  int hi = ub - 1;
  while (hi >= 1) {
    if (interrupted_before_probe(ctx, lopts)) break;
    LabelResult r = ledger_probe(ctx, engine, mode, hi);
    result.stats.accumulate(r.stats);
    result.status = combine_status(result.status, r.status);
    TS_DEBUG("phi=" << hi << (r.feasible ? " feasible" : " infeasible")
                    << " sweeps=" << r.stats.sweeps);
    if (!r.feasible) break;  // certificate, budget verdict, or interrupt
    labels = std::move(r);
    --hi;
  }
  memo = engine.take_decomp_cache();
  result.phi = hi + 1;
  return labels;
}

/// The upper bound and the plain φ search: the bound the identity mapping
/// (one LUT per gate) realizes — ceil(MDR of the input), or the input's
/// clock period under the clock-period objective — as the "ub-probe" stage,
/// then the bisection under it as the "phi-search" stage. Returns the
/// winning labels (nullopt when the search proved no φ).
std::optional<LabelResult> bisection_search(FlowContext& ctx, bool period_objective) {
  int ub = 0;
  ctx.run_stage("ub-probe", [&] {
    const std::int64_t bound =
        period_objective ? circuit_clock_period(ctx.input)
                         : circuit_mdr_howard(ctx.input, *ctx.input_sccs()).ratio.ceil();
    ub = static_cast<int>(std::max<std::int64_t>(1, bound));
    ctx.count("upper_bound", ub);
  });
  std::optional<LabelResult> labels;
  ctx.run_stage("phi-search", [&] { labels = bisect_phi(ctx, period_objective, ub); });
  return labels;
}

FlowResult run_search_engine(const EngineSpec& spec, const Circuit& c,
                             const FlowOptions& options) {
  const auto start = Clock::now();
  TraceSpan span(options.trace, spec.trace_label);
  TS_CHECK(spec.mode == LabelMode::kPlain, "a search engine bisects plain labels");
  FlowContext ctx(c, options);
  const std::optional<LabelResult> labels = bisection_search(ctx, spec.period_objective);
  DecompCache memo;  // plain labels decompose nothing
  map_pack_retime(ctx, labels ? &*labels : nullptr, spec.mode, spec.period_objective, memo);
  FlowResult result = ctx.finish();
  result.seconds = seconds_since(start);
  return result;
}

FlowResult run_seeded_search_engine(const EngineSpec& spec, const Circuit& c,
                                    const FlowOptions& options) {
  const auto start = Clock::now();
  TraceSpan flow_span(options.trace, spec.trace_label);
  FlowContext ctx(c, options);
  // Step 1 of the paper's pseudo-code: TurboMap's search provides the upper
  // bound UB. Its labels at UB prove UB feasible for the decomposition search
  // too (every plain K-cut is a valid realization there), so the scan below
  // starts from them instead of re-probing φ == UB.
  std::optional<LabelResult> labels;
  {
    TraceSpan phase(options.trace, "phase:turbomap-ub");
    labels = bisection_search(ctx, /*period_objective=*/false);
  }
  {
    TraceSpan phase(options.trace, "phase:turbosyn-search");
    // A TurboMap search stopped before it proved any ratio has no labels to
    // seed the scan: the identity mapping at UB is the anytime answer, and
    // the memo stays empty.
    DecompCache memo;
    if (labels) {
      const int ub = ctx.result.phi;
      ctx.run_stage("phi-search", [&] {
        labels = descend_phi(ctx, spec.mode, ub, std::move(*labels), memo);
      });
    }
    map_pack_retime(ctx, labels ? &*labels : nullptr, spec.mode, /*period_objective=*/false,
                    memo);
  }
  FlowResult result = ctx.finish();
  result.seconds = seconds_since(start);
  return result;
}

/// FlowSYN-s's mapping: cut the circuit at all registers, map each
/// combinational block with FlowSYN (FlowMap + functional decomposition) and
/// merge the registers back. No ratio search and no labels.
Circuit flowsyn_map(FlowContext& ctx) {
  if (ctx.options.budget.interrupted()) {
    // Stopped before the combinational mapping even started: the identity
    // mapping is the anytime answer, as in the ratio searches.
    ctx.result.status = combine_status(ctx.result.status, ctx.options.budget.check());
    ctx.count("identity_fallback", 1);
    return ctx.input;
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
  return merged;
}

FlowResult run_no_search_engine(const EngineSpec& spec, const Circuit& c,
                                const FlowOptions& options) {
  const auto start = Clock::now();
  TraceSpan span(options.trace, spec.trace_label);
  FlowContext ctx(c, options);
  Circuit comb_mapped;  // names the LUT list
  LutNetwork net;
  ctx.run_stage("flowsyn-map", [&] {
    comb_mapped = flowsyn_map(ctx);
    net = LutNetwork::from_circuit(comb_mapped);
  });
  // No ratio search; phi is the ceiling of the measured MDR.
  Circuit mapped;
  ctx.run_stage("pack", [&] { mapped = pack_mapping(ctx, net, /*phi_from_mdr=*/true); });
  ctx.run_stage("pipeline-retime", [&] {
    pipeline_retime(ctx, mapped, /*retime_only=*/false);
    // flowmap() itself is not budget-aware: report a deadline/cancel that
    // fired during it (the mapping is still complete and valid).
    ctx.result.status = combine_status(ctx.result.status, options.budget.check());
  });
  FlowResult result = ctx.finish();
  result.seconds = seconds_since(start);
  return result;
}

const char* shape_name(EngineSpec::Shape shape) {
  switch (shape) {
    case EngineSpec::Shape::kSearch:
      return "search";
    case EngineSpec::Shape::kSeededSearch:
      return "seeded-search";
    case EngineSpec::Shape::kNoSearch:
      return "no-search";
  }
  return "?";
}

std::vector<EngineSpec> build_registry() {
  std::vector<EngineSpec> specs;

  EngineSpec turbomap;
  turbomap.name = "turbomap";
  turbomap.summary = "plain-label bisection, MDR objective (TurboMap + PLD)";
  turbomap.shape = EngineSpec::Shape::kSearch;
  turbomap.mode = LabelMode::kPlain;
  turbomap.strength = 1;
  turbomap.trace_label = "flow:turbomap";
  specs.push_back(turbomap);

  EngineSpec turbosyn_spec;
  turbosyn_spec.name = "turbosyn";
  turbosyn_spec.summary =
      "TurboMap upper bound, then descending decomposition scan (the paper's flow)";
  turbosyn_spec.shape = EngineSpec::Shape::kSeededSearch;
  turbosyn_spec.mode = LabelMode::kDecomp;
  turbosyn_spec.strength = 2;
  turbosyn_spec.trace_label = "flow:turbosyn";
  specs.push_back(turbosyn_spec);

  EngineSpec flowsyn;
  flowsyn.name = "flowsyn_s";
  flowsyn.summary = "cut at FFs, FlowSYN per block, no ratio search (prior baseline)";
  flowsyn.shape = EngineSpec::Shape::kNoSearch;
  flowsyn.strength = 0;
  flowsyn.trace_label = "flow:flowsyn-s";
  specs.push_back(flowsyn);

  EngineSpec period;
  period.name = "turbomap_period";
  period.summary = "clock-period objective, retiming only (ICCD'96 TurboMap)";
  period.shape = EngineSpec::Shape::kSearch;
  period.mode = LabelMode::kPlain;
  period.period_objective = true;
  period.strength = 1;
  period.trace_label = "flow:turbomap-period";
  specs.push_back(period);

  return specs;
}

}  // namespace

void map_pack_retime(FlowContext& ctx, const LabelResult* labels, LabelMode mode,
                     bool period_objective, DecompCache& memo) {
  LutNetwork net;
  ctx.run_stage("mapgen", [&] {
    if (labels == nullptr) {
      // Stopped before any probe converged: the identity mapping (one LUT
      // per gate) is always valid.
      net = LutNetwork::from_circuit(ctx.input);
      ctx.count("identity_fallback", 1);
      return;
    }
    MapGenOptions mopts;
    mopts.label_relaxation = ctx.options.label_relaxation;
    mopts.low_cost_cuts = ctx.options.low_cost_cuts;
    if (period_objective) mopts.po_label_limit = ctx.result.phi;
    FlowResult& result = ctx.result;
    net = generate_sequential_mapping(
        ctx.input, *labels, result.phi, ctx.options.label_options(mode == LabelMode::kDecomp),
        mopts, result.stats, ctx.options.collect_artifacts ? &result.artifacts.records : nullptr,
        &memo);
    if (ctx.options.collect_artifacts) {
      result.artifacts.valid = true;
      result.artifacts.phi = result.phi;
      result.artifacts.labels = *labels;
      result.artifacts.mode = mode;
      result.artifacts.po_limited = period_objective;
    }
    ctx.count("luts", net.num_luts());
  });
  Circuit mapped;
  ctx.run_stage("pack", [&] { mapped = pack_mapping(ctx, net, /*phi_from_mdr=*/false); });
  ctx.run_stage("pipeline-retime", [&] { pipeline_retime(ctx, mapped, period_objective); });
}

std::string EngineSpec::fingerprint() const {
  std::ostringstream out;
  out << "engine " << name << " shape=" << shape_name(shape)
      << " mode=" << label_mode_name(mode) << " period=" << (period_objective ? 1 : 0)
      << " strength=" << strength;
  return out.str();
}

const std::vector<EngineSpec>& engine_registry() {
  static const std::vector<EngineSpec> registry = build_registry();
  return registry;
}

const EngineSpec* find_engine(const std::string& name) {
  for (const EngineSpec& spec : engine_registry()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

const EngineSpec& engine_for_kind(FlowKind kind) {
  const EngineSpec* spec = find_engine(flow_kind_name(kind));
  TS_CHECK(spec != nullptr, "flow kind missing from the engine registry");
  return *spec;
}

std::string engine_list_text() {
  std::ostringstream out;
  for (const EngineSpec& spec : engine_registry()) {
    out << spec.name << " (strength " << spec.strength << ", " << shape_name(spec.shape)
        << "): " << spec.summary << '\n';
  }
  return out.str();
}

bool portfolio_prefers(int phi_a, int strength_a, std::size_t pos_a, int phi_b,
                       int strength_b, std::size_t pos_b) {
  if (phi_a != phi_b) return phi_a < phi_b;
  if (strength_a != strength_b) return strength_a > strength_b;
  return pos_a < pos_b;
}

FlowResult run_engine(const EngineSpec& spec, const Circuit& c, const FlowOptions& options) {
  switch (spec.shape) {
    case EngineSpec::Shape::kSearch:
      return run_search_engine(spec, c, options);
    case EngineSpec::Shape::kSeededSearch:
      return run_seeded_search_engine(spec, c, options);
    case EngineSpec::Shape::kNoSearch:
      return run_no_search_engine(spec, c, options);
  }
  TS_CHECK(false, "unknown engine shape");
  return {};
}

}  // namespace turbosyn
