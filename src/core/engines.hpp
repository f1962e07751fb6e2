#pragma once
// Engine registry: every synthesis flow as a data-driven EngineSpec.
//
// The four paper flows differ only in
// which probe schedule, label-update rule and timing tail they run — the
// DAC'97 machinery underneath is shared. An EngineSpec captures exactly those
// degrees of freedom: the pipeline shape, the label mode, the φ schedule and
// the objective; every engine runs on the caller's FlowOptions as given.
// run_engine() runs the spec's shape as straight-line stage calls through
// FlowContext::run_stage (core/driver.hpp) with the spec's mode and
// objective, so "add another engine" is one registry entry as long as an
// existing shape fits it.
//
// Portfolio racing (core/portfolio.hpp) runs every listed engine and picks
// the best under portfolio_prefers(); `strength` only breaks equal-φ ties.
// It is not a dominance order: FlowSYN-s decomposes, so its mapping is not
// bounded by TurboMap's optimum (at K = 5 it certifies a lower φ than
// TurboMap on 9 of the 15 Table-1 shapes of up to 600 gates, and a lower φ
// than TurboSYN on bbara).

#include <string>
#include <vector>

#include "core/flows.hpp"

namespace turbosyn {

class FlowContext;

struct EngineSpec {
  /// Stage sequence run_engine() runs for the spec.
  enum class Shape : std::uint8_t {
    /// UB probe, plain φ bisection, mapgen, pack, timing tail (the
    /// TurboMap family; `mode` is kPlain).
    kSearch,
    /// UB probe and plain φ bisection (TurboMap's search: the upper bound
    /// and seed labels), then a descending scan in `mode` from that
    /// imported certificate, then one mapgen, pack and timing tail
    /// (TurboSYN).
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

  /// Root trace span, in the flows' historical spellings ("flow:turbomap",
  /// "flow:flowsyn-s", ...).
  std::string trace_label;

  /// The options this engine runs with: the caller's, unchanged (no engine
  /// overrides a FlowOptions field). Kept so callers that rebuild a winner's
  /// options, such as an auditor, need not special-case engines.
  FlowOptions apply(const FlowOptions& base) const { return base; }

  /// Canonical text of everything spec-side that can change this engine's
  /// result for a fixed circuit and caller options — cache-key material.
  std::string fingerprint() const;
};

/// The built-in engines, in registry order: the four paper flows
/// (turbomap, turbosyn, flowsyn_s, turbomap_period).
const std::vector<EngineSpec>& engine_registry();

/// Lookup by CLI name; nullptr when unknown.
const EngineSpec* find_engine(const std::string& name);

/// The registry entry behind a classic FlowKind (always present).
const EngineSpec& engine_for_kind(FlowKind kind);

/// Human-readable registry listing for --engines-list.
std::string engine_list_text();

/// The portfolio selection order, shared by the runner, the auditor and the
/// fuzz oracle: engine a (φ `phi_a`, strength `strength_a`, list position
/// `pos_a`) is preferred over b when its φ is smaller, or φ ties and its
/// strength is higher, or both tie and it is listed earlier. Total and
/// deterministic for distinct positions.
bool portfolio_prefers(int phi_a, int strength_a, std::size_t pos_a, int phi_b,
                       int strength_b, std::size_t pos_b);

/// Steps 4–5 of the paper after a label search, as the "mapgen", "pack" and
/// "pipeline-retime" stages. mapgen generates the K-LUT network from
/// `labels` at FlowResult::phi (with FlowOptions::collect_artifacts it also
/// fills FlowArtifacts for the auditor); when the search proved no φ
/// (`labels` null) the identity mapping — the K-bounded input itself — is
/// the anytime answer at the φ the search left in the result.
/// `period_objective` caps relaxation at the PO labels and retimes without
/// pipelining. `memo` is the decomposition memo mapgen reads and fills: the
/// label search's own, or an empty one when no search ran here.
void map_pack_retime(FlowContext& ctx, const LabelResult* labels, LabelMode mode,
                     bool period_objective, DecompCache& memo);

/// Runs one engine end to end: the stage sequence of its shape. The
/// backbone of run_flow() and of every portfolio run.
FlowResult run_engine(const EngineSpec& spec, const Circuit& c, const FlowOptions& options);

}  // namespace turbosyn
