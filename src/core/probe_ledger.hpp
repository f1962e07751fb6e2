#pragma once
// First-class cross-φ probe history of a flow run.
//
// Every label probe a search stage runs — one LabelEngine::compute() for one
// target ratio φ under one update rule — is recorded here: its outcome, a
// hash of the converged label vector, its stats and wall time. The ledger is
// the structural home of three soundness rules the searches used to enforce
// only by convention:
//
//   1. No φ is ever label-probed twice per mode per run. record() rejects
//      duplicate (mode, φ) keys outright, so a mis-wired probe schedule
//      fails loudly instead of silently re-deriving (and re-paying for) a
//      known verdict. TurboSYN's TurboMap search and its decomposition scan
//      record into the run's one ledger, so the rule holds across phases.
//   2. A degraded probe is never a certificate. An infeasible verdict under
//      a resource ceiling is recorded as kDegraded, not kInfeasible, so
//      minimality claims can only rest on genuine divergence certificates
//      (the PR 2 soundness rule, now auditable from the record).
//   3. Only feasible probes may seed another search (their labels witness
//      feasibility even when degraded). TurboSYN imports
//      TurboMap's upper-bound labels into the decomposition scan; the import
//      is recorded with `imported` set (no stats, no wall time — the
//      originating probe carries those) so the certificate's provenance
//      stays visible.
//
// FlowResult::probes exposes the full ledger after a run; the auditor's
// "probes" check re-verifies uniqueness, hash consistency with the winning
// labels, and the minimality witness at φ-1.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/labeling.hpp"

namespace turbosyn {

/// Which label-update rule a probe ran under: plain K-cuts (TurboMap) or
/// K-cuts plus sequential functional decomposition (TurboSYN). Labels are
/// mode-specific — a plain-feasible φ says nothing about the decomposition
/// labels at that φ beyond feasibility — so the ledger keys on (mode, φ).
enum class LabelMode : std::uint8_t { kPlain, kDecomp };
const char* label_mode_name(LabelMode m);

enum class ProbeOutcome : std::uint8_t {
  kOk,           // converged feasible, no budget interference
  kInfeasible,   // genuine divergence certificate
  kDegraded,     // a resource ceiling altered the probe (never a certificate)
  kInterrupted,  // deadline/cancel fired mid-probe; labels unusable
};
const char* probe_outcome_name(ProbeOutcome o);

/// FNV-1a over the label vector (little-endian 32-bit values). Used to tie
/// a recorded probe to the label vector a flow ultimately mapped with.
std::uint64_t hash_labels(std::span<const int> labels);

/// Outcome classification of a finished probe.
ProbeOutcome classify_probe(const LabelResult& r);

struct ProbeRecord {
  int phi = 0;
  LabelMode mode = LabelMode::kPlain;
  /// Engine that ran the probe, for merged portfolio ledgers. Empty for a
  /// standalone flow run (every probe belongs to the one engine that ran);
  /// the portfolio runner tags the winner's and every loser's records with
  /// their registry names before merging, so uniqueness keys on
  /// (engine, mode, φ) and the auditor can restrict certification checks to
  /// the winning engine's records — a losing engine's degraded probes can
  /// never outrank the winner's certificate.
  std::string engine;
  ProbeOutcome outcome = ProbeOutcome::kOk;
  Status status = Status::kOk;
  bool feasible = false;
  /// Certificate imported from another search's result rather than probed
  /// here (e.g. TurboMap's UB labels seeding the TurboSYN scan). Imported
  /// records carry no stats and no wall time — the originating probe does.
  bool imported = false;
  std::uint64_t label_hash = 0;  // hash_labels() when feasible, else 0
  int max_po_label = 0;
  LabelStats stats;
  double seconds = 0.0;
};

/// Append-only per-run probe history, keyed by (engine, mode, φ) — the
/// engine tag is empty everywhere in a standalone run, so the key degrades
/// to the classic (mode, φ). See the file comment for the soundness rules
/// it enforces.
class ProbeLedger {
 public:
  bool contains(LabelMode mode, int phi) const { return contains({}, mode, phi); }
  bool contains(const std::string& engine, LabelMode mode, int phi) const;
  /// The record at (engine, mode, phi), or nullptr. Pointers are
  /// invalidated by the next record() call.
  const ProbeRecord* find(LabelMode mode, int phi) const { return find({}, mode, phi); }
  const ProbeRecord* find(const std::string& engine, LabelMode mode, int phi) const;
  /// Appends a record; rejects (TS_CHECK) a duplicate (engine, mode, phi)
  /// key — the "no φ probed twice" guarantee.
  void record(ProbeRecord r);

  const std::vector<ProbeRecord>& records() const { return records_; }
  bool empty() const { return records_.empty(); }
  std::size_t size() const { return records_.size(); }

 private:
  std::vector<ProbeRecord> records_;
};

}  // namespace turbosyn
