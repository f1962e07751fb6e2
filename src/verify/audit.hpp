#pragma once
// Stage-by-stage invariant auditor for the synthesis flows.
//
// TurboSYN's claim is conditional correctness: the mapped K-LUT network must
// be functionally equivalent to the input under retiming/pipelining, and its
// MDR ratio must actually meet the phi the label engine certified. The
// auditor takes the artifacts a flow already produced (FlowResult, plus
// FlowArtifacts when FlowOptions::collect_artifacts was set) and
// independently re-derives every claimed property:
//
//   containment  (failed runs only) the containment record is coherent — a
//                failing stage is named iff status == kFailed — and every
//                product check is skipped, since a contained failure has no
//                result to verify; recovered/retried runs that ultimately
//                succeeded carry ordinary statuses and audit as clean runs;
//   structure    the mapped network validates and is K-bounded;
//   interface    PI names and PO display names match the input;
//   labels       the label vector is a fixpoint of the Bellman-style
//                inequalities for the certified phi;
//   cuts         each recorded realization's cut covers the root's fanin
//                frontier in the expanded (time-unfolded) graph, bounds a
//                finite cone, is K-feasible, computes exactly the cone
//                function, and its recomputed height respects the record;
//   mdr          the mapped network's MDR ratio, recomputed from scratch
//                by binary search + Bellman–Ford (an engine independent of
//                the flow's Howard iteration), is <= the certified phi and
//                equal to the claimed exact value;
//   period       the claimed (clock period, pipeline stages) pair is
//                achievable on an explicitly pipelined copy: the flow's
//                witness retiming is re-checked edge by edge
//                (w(e) + r(v) - r(u) >= 0, zero lags on PIs/POs) and its
//                period recomputed from scratch; up to 1500 nodes the
//                Leiserson–Saxe FEAS also confirms the pair and proves one
//                stage fewer infeasible;
//   equivalence  the mapped network is zero-state equivalent to the input
//                (BDD miter when both are register-free, bounded sequential
//                co-simulation with warm-up otherwise);
//   probes       the probe ledger is consistent: no (mode, phi) probed
//                twice, no probe more degraded than the flow's own status,
//                the winning phi backed by a feasible record whose label
//                hash matches the collected artifacts, and — on an exact
//                run — a rejection witness at phi - 1 proving minimality;
//   stage-timing the per-stage wall times are non-negative and sum to at
//                most the flow's total wall time (5% tolerance).
//
// Each stage audit is also exposed on its own so tests can seed deliberate
// violations (a broken cut, an illegal retiming, a phi-violating loop) and
// assert the auditor catches them.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/rational.hpp"
#include "core/flows.hpp"
#include "core/mapgen.hpp"
#include "netlist/circuit.hpp"

namespace turbosyn {

enum class AuditStatus : std::uint8_t { kPass, kFail, kSkipped };
const char* audit_status_name(AuditStatus s);

struct AuditCheck {
  std::string name;
  AuditStatus status = AuditStatus::kPass;
  std::string detail;  // failure diagnostic or skip reason
};

struct AuditReport {
  std::vector<AuditCheck> checks;
  bool passed() const;  // true iff no check failed (skips do not fail)
  int failures() const;
  /// Structured pass/fail breakdown, one line per check.
  std::string breakdown() const;
};

struct AuditOptions {
  /// Bounded sequential equivalence parameters.
  int seq_cycles = 160;
  int seq_runs = 3;
  /// Warm-up cycles ignored before comparing. 0 derives the bound: exactly 0
  /// for pipeline-mode flows (zero-state-safe cuts make the un-retimed
  /// mapped network exact from cycle 0), or a transient scaled to the
  /// deepest register chain for clock-period mode, whose result is retimed
  /// in place and may legitimately start from a shifted state.
  int seq_warmup = 0;
  std::uint64_t seq_seed = 7;
  bool check_equivalence = true;  // the most expensive stage
  /// Expanded-cone node ceiling per mapping record; exceeding it fails the
  /// record (a frontier-covering cut always bounds a finite cone).
  int cone_node_budget = 50000;
};

// ---- Stage audits: nullopt = invariant holds, else a diagnostic. ----

/// Retiming legality: one lag per node, w(e) + r(to) - r(from) >= 0 on every
/// edge, and r == 0 on `pinned` nodes (I/O latency preserved).
std::optional<std::string> audit_retiming_legality(const Circuit& c, std::span<const int> r,
                                                   std::span<const NodeId> pinned);

/// Label-fixpoint consistency at ratio phi: sources are 0; a gate v with
/// fanins lies in [max(1, L(v)), max(1, L(v) + 1)] for
/// L(v) = max over fanin edges e(u,v) of l(u) - phi*w(e); a PO is exactly
/// max(0, L(po)).
std::optional<std::string> audit_labels(const Circuit& c, std::span<const int> labels, int phi);

/// One mapping record against the input circuit: the cut covers the root's
/// fanin frontier (every backward path in the expanded graph hits the cut
/// before a PI), the cone it bounds is finite, the realization is
/// K-feasible, its LUT network computes exactly the cone function, and the
/// height recomputed from the labels does not exceed the recorded one.
std::optional<std::string> audit_mapping_record(const Circuit& c, std::span<const int> labels,
                                                int phi, int k, const MappingRecord& record,
                                                int cone_node_budget = 50000);

/// MDR of `mapped` recomputed from scratch by binary search + Bellman–Ford
/// (and its critical-cycle witness re-measured edge by edge): must equal
/// `claimed` and be <= phi.
std::optional<std::string> audit_mdr(const Circuit& mapped, int phi, const Rational& claimed);

/// Claimed (period, stages) on `mapped` pipelined by `stages` input/output
/// register stages. `period` must respect the MDR lower bound. A non-empty
/// `witness` (one lag per node) must be legal edge by edge and reach
/// `period`, recomputed from scratch. Up to kExactRetimingLimit nodes FEAS
/// must also reach `period` with `stages` and fail with `stages` - 1; above
/// it an empty witness fails the check.
std::optional<std::string> audit_period(const Circuit& mapped, std::int64_t period, int stages,
                                        std::span<const int> witness = {});

/// Full post-flow audit of `result` for `input`. Stages whose artifacts are
/// absent (FlowSYN-s, collect_artifacts off, pipelining disabled) report
/// kSkipped, never a silent pass.
AuditReport audit_flow(const Circuit& input, const FlowResult& result,
                       const FlowOptions& options, const AuditOptions& audit = {});

// ---- CLI conveniences shared by the example/bench mains. ----

/// True when `--audit` appears in argv (a value-less flag).
bool audit_flag_from_cli(int argc, char** argv);

/// One-line usage blurb for the --audit flag.
const char* audit_cli_help();

/// Runs audit_flow and streams "audit <tag>: PASS/FAIL" plus the per-check
/// breakdown to `os`; returns report.passed().
bool audit_and_report(const Circuit& input, const FlowResult& result,
                      const FlowOptions& options, const std::string& tag, std::ostream& os,
                      const AuditOptions& audit = {});

}  // namespace turbosyn
