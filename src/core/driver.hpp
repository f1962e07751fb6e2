#pragma once
// FlowContext: the stage boundary behind the public flows.
//
// Each engine (core/engines.cpp) and the cache-hit path
// (cache/cached_flow.cpp) is straight-line code: it calls
// FlowContext::run_stage once per step of the paper's flow, in a fixed
// order, and passes the step's outputs (the upper bound, the winning labels,
// the mapped network) to the next step as locals. run_stage is the one
// boundary every stage crosses: the "driver.stage" failpoints, containment
// of a throw into Status::kFailed, the "stage:<name>" trace span, the wall
// time and counter deltas of FlowResult::stage_metrics, and skipping every
// later stage once the run has failed.
//
// The context also holds the input circuit and options, the run's
// ProbeLedger (the no-reprobe scope: TurboSYN's TurboMap search and its
// decomposition scan record into the same one) and the FlowResult being
// assembled. finish() exports the ledger and diagnostics into the result and
// moves it out.
//
// Budget checking, cancellation and warm-start policy are uniform across
// flows because they live in exactly one place each: budgets thread through
// FlowOptions::label_options() into every engine the stages construct,
// probe scheduling consults the ledger, and warm starts stay inside
// LabelEngine (per search stage) under the ledger's soundness rules.

#include <functional>
#include <memory>

#include "core/flows.hpp"

namespace turbosyn {

class FlowContext {
 public:
  FlowContext(const Circuit& input_circuit, const FlowOptions& flow_options);

  const Circuit& input;
  const FlowOptions& options;
  ProbeLedger ledger;  // the no-reprobe scope of the run
  TraceSink* trace = nullptr;  // == options.trace

  FlowResult result;

  /// Runs `body` as the stage `name` unless the run has already failed:
  /// fires the "driver.stage.<name>" and "driver.stage" failpoints, contains
  /// a throw as kFailed with failed_stage/failure set, times the stage into
  /// a StageMetric with its LabelStats counter deltas, and emits a
  /// "stage:<name>" trace span.
  void run_stage(const char* name, const std::function<void()>& body);

  /// Adds a counter onto the currently running stage's metric and its trace
  /// span (no-op between stages or for zero values).
  void count(const char* counter_name, std::int64_t value);

  /// The input's SCCs, decomposed on first use and shared by the run's
  /// consumers: Howard's upper bound and every LabelEngine.
  const std::shared_ptr<const SccDecomposition>& input_sccs();

  /// Exports the probe ledger into the result, derives the user-facing
  /// diagnostics (timed_out, deduped degraded node names) from the
  /// accumulated status and stats, and moves the result out.
  FlowResult finish();

 private:
  StageMetric* current_metric_ = nullptr;
  std::shared_ptr<const SccDecomposition> input_sccs_;
};

/// Runs one label probe through the ledger: asserts (mode, φ) was not
/// probed before, computes, records outcome/hash/stats/wall time, emits a
/// "probe" trace span. The shared primitive of every search stage.
LabelResult ledger_probe(FlowContext& ctx, LabelEngine& engine, LabelMode mode, int phi);

}  // namespace turbosyn
