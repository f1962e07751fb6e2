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
//   mdr          the claimed exact MDR ratio p/q of the mapped network is
//                <= the certified phi and certified, not recomputed: the
//                auditor's own longest-path routine (independent of the
//                flow's Howard iteration and label pass) yields potentials
//                that no edge violates under cost q·d(v) - p·w(e), proving
//                MDR <= p/q, and a closed cycle of ratio exactly p/q;
//   period       the claimed (clock period, pipeline stages) pair is
//                achievable and minimal: the flow's witness retiming (required
//                at every size) is re-checked edge by edge on an explicitly
//                pipelined copy (w(e) + r(v) - r(u) >= 0, zero lags on
//                PIs/POs) and its period recomputed from scratch; a PI→PO
//                path too slow for one stage fewer proves the depth minimal,
//                and the period is either max(1, ceil(MDR)) or a PI→PO path
//                too slow for period - 1 proves it minimal;
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
// Each stage audit and each certificate check is also exposed on its own so
// tests can seed deliberate violations (a broken cut, an illegal retiming, a
// phi-violating loop, a mutated certificate) and assert the auditor catches
// them.

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
  /// Bounded sequential equivalence parameters. There is no warm-up: every
  /// flow publishes its mapped network un-retimed, and zero-state-safe cuts
  /// make it exact from cycle 0.
  int seq_cycles = 160;
  int seq_runs = 3;
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

// ---- Certificates: each claim is decided by an O(E) check. ----

/// Certificate that p/q is a network's exact MDR ratio: potentials under
/// which no edge e(u, v) has potential(v) < potential(u) + q·d(v) - p·w(e),
/// so no cycle's ratio exceeds p/q, and a closed cycle of ratio exactly p/q
/// (empty when p = 0).
struct MdrCertificate {
  std::vector<std::int64_t> potential;
  std::vector<EdgeId> cycle;
};

/// Builds the certificate for `mdr` with the auditor's longest-path routine
/// (every node a source): potentials are the longest-path values and the
/// cycle is one of tight edges. When `mdr` is not the exact ratio, the
/// result fails check_mdr_certificate.
MdrCertificate mdr_certificate(const Circuit& c, const Rational& mdr);

/// Checks the potentials edge by edge and re-measures the cycle.
std::optional<std::string> check_mdr_certificate(const Circuit& c, const Rational& mdr,
                                                 const MdrCertificate& cert);

/// A PI→PO path with the largest delay D - period·w (w its registers), from
/// the auditor's longest-path routine with the PIs as sources; empty if no
/// PO is reachable or some cycle's ratio exceeds `period`.
std::vector<EdgeId> slowest_io_path(const Circuit& c, std::int64_t period);

/// Checks that `path` runs edge by edge from a PI to a PO with delay
/// D > period·(w + 2·stages + 1): it then crosses w + 2·stages registers once
/// pipelined by `stages`, too few to split it into segments of delay <=
/// period, which proves `period` out of reach with `stages` stages.
std::optional<std::string> check_slow_path(const Circuit& c, std::span<const EdgeId> path,
                                           std::int64_t period, int stages);

// ---- Claim audits built on the certificates. ----

/// The claimed exact MDR of `mapped` is certified (mdr_certificate) and is
/// <= phi.
std::optional<std::string> audit_mdr(const Circuit& mapped, int phi, const Rational& claimed);

/// Claimed (period, stages) on `mapped` pipelined by `stages` input/output
/// register stages, against `mdr` (the MDR audit_mdr certifies). `period`
/// must be >= mdr. The `witness` (one lag per node, required) must be legal
/// edge by edge and reach `period`, recomputed from scratch. With stages > 0
/// a slow path must prove stages - 1 too few; unless period is
/// max(1, ceil(mdr)), a slow path must prove period - 1 out of reach.
std::optional<std::string> audit_period(const Circuit& mapped, const Rational& mdr,
                                        std::int64_t period, int stages,
                                        std::span<const int> witness);

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
