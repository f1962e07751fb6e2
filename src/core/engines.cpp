#include "core/engines.hpp"

#include <chrono>
#include <memory>
#include <sstream>
#include <utility>

#include "base/check.hpp"
#include "base/trace.hpp"
#include "core/driver.hpp"
#include "core/stages/flowsyn_map.hpp"
#include "core/stages/mapgen_stage.hpp"
#include "core/stages/pack_stage.hpp"
#include "core/stages/phi_search.hpp"
#include "core/stages/pipeline_retime_stage.hpp"
#include "core/stages/ub_probe.hpp"

namespace turbosyn {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The plain-label search pipeline (the TurboMap stages): also phase A of
/// every seeded-search engine, which is why it ignores the spec's mode.
StageList plain_search_stages() {
  StageList stages;
  stages.push_back(std::make_unique<UbProbeStage>(UbProbeStage::Kind::kIdentityMdr));
  stages.push_back(std::make_unique<PhiSearchStage>(PhiSearchStage::Config{}));
  stages.push_back(std::make_unique<MapGenStage>());
  stages.push_back(std::make_unique<PackStage>());
  stages.push_back(
      std::make_unique<PipelineRetimeStage>(PipelineRetimeStage::Kind::kPipelineRetime));
  return stages;
}

/// A kSearch spec expanded into its stage list.
StageList search_stages(const EngineSpec& spec) {
  StageList stages;
  stages.push_back(std::make_unique<UbProbeStage>(spec.period_objective
                                                      ? UbProbeStage::Kind::kClockPeriod
                                                      : UbProbeStage::Kind::kIdentityMdr));
  PhiSearchStage::Config cfg;
  cfg.mode = spec.mode;
  cfg.period_objective = spec.period_objective;
  stages.push_back(std::make_unique<PhiSearchStage>(std::move(cfg)));
  stages.push_back(std::make_unique<MapGenStage>(/*po_label_limit=*/spec.period_objective));
  stages.push_back(std::make_unique<PackStage>());
  stages.push_back(std::make_unique<PipelineRetimeStage>(
      spec.period_objective ? PipelineRetimeStage::Kind::kRetimeOnly
                            : PipelineRetimeStage::Kind::kPipelineRetime));
  return stages;
}

FlowResult run_search_engine(const EngineSpec& spec, const Circuit& c,
                             const FlowOptions& options) {
  const auto start = Clock::now();
  TraceSpan span(options.trace, spec.trace_label);
  FlowDriver driver(c, options);
  driver.run(search_stages(spec));
  FlowResult result = driver.finish();
  result.seconds = seconds_since(start);
  return result;
}

FlowResult run_seeded_search_engine(const EngineSpec& spec, const Circuit& c,
                                    const FlowOptions& options) {
  const auto start = Clock::now();
  TraceSpan flow_span(options.trace, spec.trace_label);
  // One no-reprobe scope across both phases: plain-mode probes from phase A
  // and `spec.mode` probes from phase B share the ledger.
  ProbeLedger ledger;

  // Step 1 of the paper's pseudo-code: TurboMap provides the upper bound UB.
  // Its labels at UB prove UB feasible for the decomposition search too
  // (every plain K-cut is a valid realization there), so the search below
  // starts from them instead of re-probing phi == UB.
  FlowDriver ub_driver(c, options, ledger);
  {
    TraceSpan phase(options.trace, spec.phase_ub_label);
    ub_driver.run(plain_search_stages());
  }
  const bool have_ub_labels = ub_driver.context().have_labels;
  auto ub_labels = std::make_shared<LabelResult>(ub_driver.context().labels);
  FlowResult ub_run = ub_driver.finish();
  if (ub_run.status == Status::kFailed) {
    // A contained phase-A failure ends the flow: whatever labels exist were
    // produced next to a blown stage boundary, so nothing seeds phase B.
    ub_run.seconds = seconds_since(start);
    return ub_run;
  }
  if (!have_ub_labels) {
    // The TurboMap stage was stopped before it proved any ratio feasible:
    // there are no labels to seed the decomposition search, so the anytime
    // answer is the TurboMap stage's own fallback result.
    ub_run.seconds = seconds_since(start);
    return ub_run;
  }

  FlowDriver driver(c, options, ledger);
  {
    TraceSpan phase(options.trace, spec.phase_search_label);
    StageList stages;
    stages.push_back(std::make_unique<UbProbeStage>(ub_run.phi));
    PhiSearchStage::Config cfg;
    cfg.schedule = PhiSearchStage::Schedule::kDescending;
    cfg.mode = spec.mode;
    cfg.seed = std::move(ub_labels);
    stages.push_back(std::make_unique<PhiSearchStage>(std::move(cfg)));
    stages.push_back(std::make_unique<MapGenStage>());
    stages.push_back(std::make_unique<PackStage>());
    stages.push_back(
        std::make_unique<PipelineRetimeStage>(PipelineRetimeStage::Kind::kPipelineRetime));
    driver.run(stages);
  }
  FlowResult result = driver.finish();
  result.stats.accumulate(ub_run.stats);
  result.status = combine_status(result.status, ub_run.status);
  fill_flow_diagnostics(result, c);
  // One timeline: the TurboMap phase's stages first, then the search phase's.
  result.stage_metrics.stages.insert(result.stage_metrics.stages.begin(),
                                     ub_run.stage_metrics.stages.begin(),
                                     ub_run.stage_metrics.stages.end());
  result.seconds = seconds_since(start);
  return result;
}

FlowResult run_no_search_engine(const EngineSpec& spec, const Circuit& c,
                                const FlowOptions& options) {
  const auto start = Clock::now();
  TraceSpan span(options.trace, spec.trace_label);
  FlowDriver driver(c, options);
  StageList stages;
  stages.push_back(std::make_unique<FlowSynMapStage>());
  // No ratio search; phi is the ceiling of the measured MDR.
  stages.push_back(std::make_unique<PackStage>(/*phi_from_mdr=*/true));
  // flowmap() itself is not budget-aware; the final budget check reports a
  // deadline/cancel that fired during it (the mapping is still complete and
  // valid).
  stages.push_back(std::make_unique<PipelineRetimeStage>(
      PipelineRetimeStage::Kind::kPipelineRetime, /*final_budget_check=*/true));
  driver.run(stages);
  FlowResult result = driver.finish();
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
  turbosyn_spec.phase_ub_label = "phase:turbomap-ub";
  turbosyn_spec.phase_search_label = "phase:turbosyn-search";
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

  EngineSpec ts_bisect;
  ts_bisect.name = "turbosyn_bisect";
  ts_bisect.summary = "single-phase decomposition bisection from the identity bound";
  ts_bisect.shape = EngineSpec::Shape::kSearch;
  ts_bisect.mode = LabelMode::kDecomp;
  ts_bisect.strength = 2;
  ts_bisect.trace_label = "flow:turbosyn_bisect";
  specs.push_back(ts_bisect);

  return specs;
}

}  // namespace

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

bool never_beats(const EngineSpec& weaker, const EngineSpec& stronger) {
  return weaker.shape == EngineSpec::Shape::kSearch && weaker.mode == LabelMode::kPlain &&
         !weaker.period_objective && stronger.shape == EngineSpec::Shape::kSeededSearch;
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
