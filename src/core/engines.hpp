#pragma once
// Engine registry: every synthesis flow as a data-driven EngineSpec.
//
// The four paper flows (and the one-phase TurboSYN variant) differ only in
// which probe schedule, label-update rule and timing tail they run — the
// DAC'97 machinery underneath is shared. An EngineSpec captures exactly those
// degrees of freedom: the pipeline shape, the label mode, the φ schedule and
// the objective; every engine runs on the caller's FlowOptions as given.
// run_engine() expands a spec into the stage list the FlowDriver executes,
// so "add another engine" is one registry entry, not another hand-written
// pipeline.
//
// The registry is also the soundness basis of portfolio racing
// (core/portfolio.hpp): never_beats() encodes the one dominance fact that
// holds by construction and makes first-to-certificate cancellation safe —
// a seeded search (TurboSYN) runs the plain MDR search (TurboMap) as its
// phase A and scans down from that certificate, so φ(turbosyn) <=
// φ(turbomap) for a fixed circuit and options. Nothing else is a fact:
// FlowSYN-s decomposes, so its mapping is not bounded by TurboMap's optimum
// (at K = 5 it certifies a lower φ than TurboMap on 9 of the 15 Table-1
// shapes of up to 600 gates, and a lower φ than TurboSYN on bbara), and
// turbosyn_bisect bisects a non-monotone predicate from the identity bound,
// so it is bounded by neither TurboMap nor TurboSYN.
//
// TurboMap may therefore be cancelled the moment TurboSYN finishes with a
// certificate: the race's outcome is bit-identical to running every engine
// to completion and picking the best.

#include <string>
#include <vector>

#include "core/flows.hpp"

namespace turbosyn {

struct EngineSpec {
  /// Pipeline shape run_engine() expands the spec into.
  enum class Shape : std::uint8_t {
    /// UB probe, φ search, mapgen, pack, timing tail (the TurboMap family).
    kSearch,
    /// Two phases sharing one ledger: a plain kSearch pass provides the
    /// upper bound and seed labels, then a descending scan in `mode` runs
    /// from that imported certificate (TurboSYN).
    kSeededSearch,
    /// Direct mapping with no ratio search; φ is measured after packing
    /// (FlowSYN-s).
    kNoSearch,
  };

  std::string name;     // CLI spelling; also the ledger/trace/cache tag
  std::string summary;  // one-liner for --engines-list
  Shape shape = Shape::kSearch;
  /// Update rule of the (final) search stage: plain K-cuts or K-cuts plus
  /// sequential functional decomposition.
  LabelMode mode = LabelMode::kPlain;
  /// Clock-period objective (the ICCD'96 TurboMap): probes additionally
  /// require max_po_label <= φ, mapgen caps relaxation at the PO labels,
  /// and the timing tail retimes without pipelining.
  bool period_objective = false;
  /// Selection rank among equal-φ certificates (portfolio_prefers): 0 = no
  /// search (FlowSYN-s), 1 = plain label search (TurboMap), 2 =
  /// decomposition search (TurboSYN). Not a dominance order: a lower
  /// strength may certify a smaller φ (see the file comment).
  int strength = 0;

  /// Root trace span. The four original flows keep their historical
  /// spellings ("flow:turbomap", ...); variants use "flow:<name>".
  std::string trace_label;
  /// kSeededSearch only: the two phase spans ("phase:turbomap-ub",
  /// "phase:turbosyn-search" for the original TurboSYN).
  std::string phase_ub_label;
  std::string phase_search_label;

  /// The options this engine runs with: the caller's, unchanged (no engine
  /// overrides a FlowOptions field). Kept so callers that rebuild a winner's
  /// options, such as an auditor, need not special-case engines.
  FlowOptions apply(const FlowOptions& base) const { return base; }

  /// Canonical text of everything spec-side that can change this engine's
  /// result for a fixed circuit and caller options — cache-key material.
  std::string fingerprint() const;
};

/// The built-in engines, in registry order: the four paper flows first
/// (turbomap, turbosyn, flowsyn_s, turbomap_period), then the one-phase
/// variant turbosyn_bisect.
const std::vector<EngineSpec>& engine_registry();

/// Lookup by CLI name; nullptr when unknown.
const EngineSpec* find_engine(const std::string& name);

/// The registry entry behind a classic FlowKind (always present).
const EngineSpec& engine_for_kind(FlowKind kind);

/// Human-readable registry listing for --engines-list.
std::string engine_list_text();

/// True when `weaker`'s certified φ can never be smaller than `stronger`'s
/// on any circuit under shared caller options: `weaker` is the plain MDR
/// search and `stronger` a seeded search, whose phase A is that same
/// search. This is the dominance predicate portfolio cancellation and the
/// "portfolio" audit check both rest on.
bool never_beats(const EngineSpec& weaker, const EngineSpec& stronger);

/// The portfolio selection order, shared by the runner, the auditor and the
/// fuzz oracle: engine a (φ `phi_a`, strength `strength_a`, list position
/// `pos_a`) is preferred over b when its φ is smaller, or φ ties and its
/// strength is higher, or both tie and it is listed earlier. Total and
/// deterministic for distinct positions.
bool portfolio_prefers(int phi_a, int strength_a, std::size_t pos_a, int phi_b,
                       int strength_b, std::size_t pos_b);

/// Runs one engine end to end: expands the spec into its stage pipeline and
/// drives it. The backbone of run_flow() and of every portfolio lane.
FlowResult run_engine(const EngineSpec& spec, const Circuit& c, const FlowOptions& options);

}  // namespace turbosyn
