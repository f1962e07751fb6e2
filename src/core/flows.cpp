#include "core/flows.hpp"

#include "base/check.hpp"
#include "core/engines.hpp"

namespace turbosyn {

// The four public flows are registry entries: run_engine() runs an
// EngineSpec's stage sequence (core/engines.cpp), so this file only keeps
// the FlowOptions plumbing and the FlowKind naming shims.

LabelOptions FlowOptions::label_options(bool enable_decomposition) const {
  LabelOptions l;
  l.k = k;
  l.enable_decomposition = enable_decomposition;
  l.cmax = cmax;
  l.height_span = height_span;
  l.use_pld = use_pld;
  l.budget = budget;  // copies share state: one budget governs the whole flow
  l.expansion = expansion;
  return l;
}

std::int64_t StageMetric::counter(const std::string& counter_name) const {
  for (const auto& [name, value] : counters) {
    if (name == counter_name) return value;
  }
  return 0;
}

double StageMetrics::total_seconds() const {
  double total = 0.0;
  for (const StageMetric& stage : stages) total += stage.seconds;
  return total;
}

const StageMetric* StageMetrics::find(const std::string& stage_name) const {
  for (const StageMetric& stage : stages) {
    if (stage.name == stage_name) return &stage;
  }
  return nullptr;
}

FlowResult run_turbomap(const Circuit& c, const FlowOptions& options) {
  return run_engine(engine_for_kind(FlowKind::kTurboMap), c, options);
}

FlowResult run_turbosyn(const Circuit& c, const FlowOptions& options) {
  return run_engine(engine_for_kind(FlowKind::kTurboSyn), c, options);
}

FlowResult run_flowsyn_s(const Circuit& c, const FlowOptions& options) {
  return run_engine(engine_for_kind(FlowKind::kFlowSynS), c, options);
}

FlowResult run_turbomap_period(const Circuit& c, const FlowOptions& options) {
  return run_engine(engine_for_kind(FlowKind::kTurboMapPeriod), c, options);
}

const char* flow_kind_name(FlowKind kind) {
  switch (kind) {
    case FlowKind::kTurboMap:
      return "turbomap";
    case FlowKind::kTurboSyn:
      return "turbosyn";
    case FlowKind::kFlowSynS:
      return "flowsyn_s";
    case FlowKind::kTurboMapPeriod:
      return "turbomap_period";
  }
  return "?";
}

bool flow_kind_from_name(const std::string& name, FlowKind& kind) {
  for (const FlowKind k : {FlowKind::kTurboMap, FlowKind::kTurboSyn, FlowKind::kFlowSynS,
                           FlowKind::kTurboMapPeriod}) {
    if (name == flow_kind_name(k)) {
      kind = k;
      return true;
    }
  }
  return false;
}

FlowResult run_flow(FlowKind kind, const Circuit& c, const FlowOptions& options) {
  return run_engine(engine_for_kind(kind), c, options);
}

}  // namespace turbosyn
