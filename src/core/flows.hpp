#pragma once
// End-to-end synthesis flows compared in the paper's Table 1.
//
//  - turbomap():  label computation without resynthesis, binary search on the
//                 integer MDR ratio (the TurboMap algorithm run in MDR mode,
//                 as the paper does when combining it with PLD).
//  - turbosyn():  the paper's contribution — TurboMap's upper bound, then
//                 binary search with sequential functional decomposition.
//  - flowsyn_s(): the strongest prior baseline — cut at all FFs, map each
//                 combinational block with FlowSYN, merge the FFs back.
//  - turbomap_period(): the original ICCD'96 TurboMap objective — minimum
//                 clock period under retiming only (no pipelining).
//
// Every flow returns the mapped network (after packing), its exact MDR
// ratio, and the clock period achieved after pipelining + retiming.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/rational.hpp"
#include "base/run_budget.hpp"
#include "core/labeling.hpp"
#include "core/mapgen.hpp"
#include "core/probe_ledger.hpp"
#include "netlist/circuit.hpp"
#include "retime/pipeline.hpp"

namespace turbosyn {

class TraceSink;

struct FlowOptions {
  int k = 5;
  int cmax = 15;
  int height_span = 3;
  bool use_pld = true;           // positive loop detection (vs n^2 criterion)
  bool label_relaxation = true;  // LUT-reduction in mapping generation
  bool low_cost_cuts = true;     // min-size, max-sharing cut selection
  bool dedupe = true;            // structural LUT deduplication
  bool pack = true;              // mpack/flowpack-style packing
  bool pipeline = true;          // post-process with pipelining + retiming
  /// Ignored: the label engine always sweeps sequentially. Kept only
  /// because the benchmark harness (synthbench/) still sets it; drop it at
  /// the next change to the benchmark.
  int num_threads = 0;
  /// Record the winning labels and per-node realizations in
  /// FlowResult::artifacts so the invariant auditor (verify/audit.hpp) can
  /// independently re-check the run. Off by default: the artifacts hold a
  /// full label vector plus one realization per mapped LUT. A cache hit
  /// regenerates FlowResult::mapped only when this is set.
  bool collect_artifacts = false;
  /// Deadline / cancellation / resource ceilings governing the whole flow.
  /// Default-constructed = unlimited; an unlimited budget leaves every result
  /// bit-identical to the budget-free code.
  RunBudget budget;
  ExpandedOptions expansion;
  /// Optional trace sink (base/trace.hpp): the flow, each stage and each φ
  /// probe emit scoped spans and counters into it. Not owned; nullptr (the
  /// default) disables tracing entirely.
  TraceSink* trace = nullptr;

  LabelOptions label_options(bool enable_decomposition) const;
};

/// Wall time and counters of one pipeline stage of a flow run. Counters are
/// stage-local deltas (labels computed, cut tests, flow augmentations,
/// decomposition attempts/cache hits, retime configurations, ...).
struct StageMetric {
  std::string name;
  double seconds = 0.0;
  std::vector<std::pair<std::string, std::int64_t>> counters;
  /// Value of a named counter (0 when the stage did not emit it).
  std::int64_t counter(const std::string& counter_name) const;
};

/// Per-stage breakdown of a flow run, in execution order. Multi-phase flows
/// (TurboSYN) concatenate their phases into one timeline.
struct StageMetrics {
  std::vector<StageMetric> stages;
  double total_seconds() const;
  /// First stage with the given name, or nullptr.
  const StageMetric* find(const std::string& stage_name) const;
};

/// Intermediate artifacts of a label-driven flow, kept for independent
/// re-verification. Only populated when FlowOptions::collect_artifacts is
/// set and the flow actually ran a label search to completion (FlowSYN-s and
/// interrupted identity fallbacks produce none — `valid` stays false and the
/// auditor skips the label/cut stages).
struct FlowArtifacts {
  bool valid = false;
  int phi = 0;                         // the ratio/period the labels certify
  LabelResult labels;                  // winning converged labels (input ids)
  std::vector<MappingRecord> records;  // realizations behind `mapped`
  /// Update rule the labels converged under — tells the auditor which ledger
  /// entry certifies them without re-deriving it from flow identity.
  LabelMode mode = LabelMode::kPlain;
  /// Clock-period objective: probes additionally required
  /// max_po_label <= φ, so the minimality witness at φ-1 may be a feasible
  /// probe rejected on its PO labels rather than an infeasibility.
  bool po_limited = false;
};

/// One engine's row in a portfolio run: what it achieved (or where it was
/// stopped), for the STATS rollups, the trace, and the "portfolio" audit
/// check. `cancelled` means the race stopped the engine before it finished
/// exactly — either mid-run (status is then kCancelled) or before it even
/// started (seconds == 0); a cancelled engine never holds a certificate.
struct EngineRun {
  std::string name;          // registry name
  int phi = 0;               // the engine's φ (0 when skipped before start)
  Status status = Status::kOk;
  bool certified = false;    // finished with status kOk: an eligible winner
  bool cancelled = false;    // lost the race (dominated by a finisher)
  double seconds = 0.0;      // the engine's own wall clock (0 when skipped)
  int luts = 0;
};

struct FlowResult {
  int phi = 0;               // minimum integer ratio/period the flow achieved
  /// Final LUT network. Empty on a cache hit served without artifacts
  /// (cache/cached_flow.hpp): set collect_artifacts to get it from a hit.
  Circuit mapped;
  int luts = 0;
  std::int64_t ffs = 0;      // register bits in `mapped` (before pipelining)
  Rational exact_mdr;        // exact MDR ratio of `mapped`
  std::int64_t period = 0;   // clock period after pipelining + retiming
  int pipeline_stages = 0;
  /// Witness for (period, pipeline_stages): one lag per node of `mapped`, a
  /// legal retiming of `mapped` pipelined by `pipeline_stages` at its PIs and
  /// POs whose clock period is `period` (PIs and POs at lag 0). Empty when no
  /// period was claimed, and on a cache hit served without artifacts.
  std::vector<int> retiming;
  LabelStats stats;          // accumulated across the binary search
  double seconds = 0.0;      // wall-clock of the whole flow
  /// kOk: exact run. kDegraded: a resource ceiling altered the computation;
  /// `mapped` is still a valid, equivalent network but `phi`/`period` may be
  /// above the true optimum. kDeadlineExceeded / kCancelled: the run was
  /// interrupted; `mapped` is the best feasible mapping found so far (the
  /// identity mapping if none completed), still equivalent to the input.
  Status status = Status::kOk;
  /// Convenience flag: the run was stopped by a deadline or cancellation
  /// before the search finished (status is kDeadlineExceeded or kCancelled).
  bool timed_out = false;
  /// Containment record (status == kFailed): the stage whose run() threw or
  /// tripped an injected fault, and the exception text. The driver caught
  /// the failure at the stage boundary and skipped the remaining stages, so
  /// `mapped` is whatever the last completed stage left behind (the empty
  /// default when mapping generation never ran) — usable for diagnostics,
  /// never as a result, never as a certificate, never cacheable.
  std::string failed_stage;
  std::string failure;
  /// Deduped names of nodes whose decomposition fell back to the plain K-cut
  /// label under a resource ceiling (empty on an unlimited run).
  std::vector<std::string> degraded_nodes;
  /// Label/realization artifacts for the auditor (see FlowArtifacts).
  FlowArtifacts artifacts;
  /// Per-stage wall-time/counter breakdown of the run (see StageMetrics).
  StageMetrics stage_metrics;
  /// Full probe ledger of the run: every (mode, φ) label probe with outcome,
  /// label hash, stats and wall time (empty for FlowSYN-s, which runs no
  /// ratio search). A portfolio run merges every engine's ledger here with
  /// each record tagged by its engine name. See core/probe_ledger.hpp for
  /// the soundness rules.
  std::vector<ProbeRecord> probes;
  /// Portfolio provenance. Empty for a standalone flow run. For a portfolio
  /// run, `engine` names the winning engine (the one whose result this is)
  /// and `portfolio` holds one row per raced engine in spec order —
  /// including the winner — so callers can audit the selection and meter
  /// the wall time the cancellations saved.
  std::string engine;
  std::vector<EngineRun> portfolio;
};

FlowResult run_turbomap(const Circuit& c, const FlowOptions& options);
FlowResult run_turbosyn(const Circuit& c, const FlowOptions& options);
FlowResult run_flowsyn_s(const Circuit& c, const FlowOptions& options);
FlowResult run_turbomap_period(const Circuit& c, const FlowOptions& options);

/// The four public flows as a first-class value, for callers that select a
/// flow at runtime (the BLIF CLI, the batch scheduler, the artifact cache
/// key). The names match the CLI spellings.
enum class FlowKind : std::uint8_t { kTurboMap, kTurboSyn, kFlowSynS, kTurboMapPeriod };

/// CLI spelling of a kind ("turbomap", "turbosyn", "flowsyn_s",
/// "turbomap_period").
const char* flow_kind_name(FlowKind kind);

/// Parses a CLI spelling; returns false (leaving `kind` untouched) on an
/// unknown name.
bool flow_kind_from_name(const std::string& name, FlowKind& kind);

/// Dispatches to the matching run_* entry point.
FlowResult run_flow(FlowKind kind, const Circuit& c, const FlowOptions& options);

}  // namespace turbosyn
