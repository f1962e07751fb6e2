#pragma once
// Pipelining: inserting flip-flop stages at the primary inputs and outputs.
//
// Pipelining adds the same number of FFs on every PI fanout edge and every
// PO fanin edge; combined with retiming it eliminates critical I/O paths, so
// the clock period is bounded only by the MDR ratio of the loops (paper refs
// [16, 22]). This is the post-processing step that turns a minimum-MDR
// mapping into a minimum-clock-period implementation.

#include <cstdint>
#include <vector>

#include "base/rational.hpp"
#include "netlist/circuit.hpp"

namespace turbosyn {

/// Adds `stages` flip-flops to every PI fanout edge (changes I/O latency by
/// `stages` cycles, preserves the input-output function modulo that shift).
void pipeline_inputs(Circuit& c, int stages);

/// Adds `stages` flip-flops in front of every PO (output registers).
void pipeline_outputs(Circuit& c, int stages);

struct PipelineResult {
  std::int64_t period = 0;  // the clock period reached
  int stages = 0;           // stages at the PIs and at the POs reaching it
  /// Witness: one lag per node, a legal retiming of the circuit pipelined by
  /// `stages` (pipeline_inputs + pipeline_outputs) whose period is `period`.
  /// Every PI and PO has lag 0.
  std::vector<int> retiming;
  int label_passes = 0;           // periods whose labels were computed
  std::int64_t label_rounds = 0;  // Bellman–Ford rounds over all passes
};

/// Minimum clock period under input/output pipelining + retiming, and the
/// fewest stages that reach it, from one longest-path label pass.
///
/// With c = max(1, ceil(mdr)) (`mdr` is the circuit's MDR ratio), l(v) is the
/// longest path from the PIs with edge cost d(to) - c·w(e); no cycle has
/// positive cost, so the labels exist. A PI-to-PO path of cost L crosses
/// w + 2s registers once pipelined and needs delay <= c·(w + 2s + 1), so
/// s = ceil((L - c) / (2c)) stages (0 when L <= c) over the largest PO label
/// L is the minimum; the lags ceil(l(v)/c) - 1 - s realize it (DESIGN.md §3).
PipelineResult pipeline_and_retime(const Circuit& c, const Rational& mdr);

/// Minimum clock period under retiming alone (PIs and POs keep lag 0, no
/// stages), with the label lags as witness. Period c is reachable exactly
/// when c >= mdr and the largest PO label L(c) is <= c; L(c) - c strictly
/// decreases in c, so a binary search over [max(1, ceil(mdr)), clock period]
/// finds the least such c.
PipelineResult retime_without_pipelining(const Circuit& c, const Rational& mdr);

}  // namespace turbosyn
