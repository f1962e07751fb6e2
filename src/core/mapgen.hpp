#pragma once
// Sequential mapping generation: turn converged labels into a K-LUT network.
//
// Walking back from the POs, every needed node is realized at its final
// label (a plain K-cut of E_v, or the decomposition DAG TurboSYN found); the
// cut nodes u^w become LUT fanins with w flip-flops on the edge. Because the
// labels converged for ratio phi, the resulting network has MDR ratio <= phi.
//
// Label relaxation (the paper's first LUT-reduction technique): a node that
// needed resynthesis at its own label may be realizable as a single plain
// K-cut at the (higher) height its consumers actually allow — replacing the
// decomposition DAG by one LUT. The relaxed height is computed from the
// consumers' realizations, so swapping never invalidates them.

#include <optional>
#include <vector>

#include "core/labeling.hpp"
#include "netlist/circuit.hpp"

namespace turbosyn {

/// One realized node of a generated mapping, as the generator chose it: the
/// root in the *input* circuit, the realized height, and the realization
/// (plain K-cut or decomposition DAG over the cut). Collected for the
/// invariant auditor (verify/audit.hpp), which independently re-derives cone
/// coverage, K-feasibility, function equality and height consistency from
/// the input circuit — records stay meaningful even after dedupe/packing
/// restructure the emitted network, because they never reference it.
struct MappingRecord {
  NodeId root = kNoNode;
  int height = 0;
  NodeRealization real;
};

struct MapGenOptions {
  bool label_relaxation = true;
  /// Choose plain cuts by the paper's low-cost rule (min size, then max
  /// sharing with inputs already used by other LUTs).
  bool low_cost_cuts = true;
  /// When set (clock-period mode, no pipelining), PO labels must stay within
  /// this bound, which also constrains how far relaxation may raise heights.
  std::optional<int> po_label_limit;
};

/// Generates the mapped LUT circuit for converged `labels` at ratio phi.
/// PI/PO names are preserved; LUT nodes take the name of the original node
/// they are rooted at (encoder LUTs get a "$e<i>" suffix). When `records` is
/// non-null it receives one MappingRecord per realized (live) node, in
/// input-circuit node order. `cache` (optional) is the decomposition memo
/// the realizations read and fill, typically the label search's own
/// (LabelEngine::take_decomp_cache); a null `cache` stands for a memo local
/// to this call.
Circuit generate_sequential_mapping(const Circuit& c, const LabelResult& labels, int phi,
                                    const LabelOptions& label_options,
                                    const MapGenOptions& options, LabelStats& stats,
                                    std::vector<MappingRecord>* records = nullptr,
                                    DecompCache* cache = nullptr);

}  // namespace turbosyn
