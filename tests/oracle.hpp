#pragma once
// Reference solvers the tests check the product against. The product never
// links them: its flows read (period, stages) and the witness retiming off
// longest-path labels (retime/pipeline.hpp), Howard's iteration is its one
// MDR solver (retime/howard.hpp), and the auditor checks certificates.
//
//   - find_positive_cycle: Bellman–Ford longest paths from every node with
//     positive-cycle extraction.
//   - max_delay_to_register_ratio: the maximum cycle ratio by an integer
//     binary search plus cycle-ratio improvement, each step a positive-cycle
//     test under the integer cost q·d(v) - p·w(e).
//   - feasible_retiming / min_period_retiming: textbook Leiserson–Saxe FEAS
//     on the W/D matrices (one lexicographic Dijkstra per source), the PIs
//     and POs pinned at lag 0, and the OPT1 binary search over periods.
//
// All of them read the circuit's own edge arrays under the unit delay model.
//   - read_blif_reference: the line-by-line istream BLIF reader (getline,
//     a token vector per line, one AND per cover literal) that the one-pass
//     reader in netlist/blif.cpp replaced; blif_reader_disagreement runs
//     both on one text and compares everything they produce.
//   - cut_function_reference: a cut function composed copy by copy along
//     the circuit's own fanins (a hash-map memo and one compose() per
//     copy), the algorithm the arena-based ExpandedNetwork::cut_function
//     replaced.
//   - decompose_for_label_reference: the Roth–Karp search with one heap
//     table per column class and encoder and residue tables built bit by
//     bit, which the word-level step in decomp/roth_karp.cpp replaced.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/check.hpp"
#include "base/rational.hpp"
#include "base/rng.hpp"
#include "base/truth_table.hpp"
#include "core/expanded.hpp"
#include "decomp/roth_karp.hpp"
#include "netlist/circuit.hpp"
#include "retime/howard.hpp"

namespace turbosyn::oracle {

struct PositiveCycle {
  bool found = false;
  /// Edges of one positive cycle, in traversal order (empty if !found).
  std::vector<EdgeId> edges;
};

/// A cycle whose total cost (sum of cost(e) over its edges) is > 0, if any.
PositiveCycle find_positive_cycle(const Circuit& c,
                                  const std::function<std::int64_t(EdgeId)>& cost);

/// True iff some cycle has delay(C) > ratio * registers(C).
bool has_cycle_above_ratio(const Circuit& c, const Rational& ratio);

/// Exact MDR ratio and a critical cycle. Throws turbosyn::Error on a
/// zero-register cycle with positive delay.
CycleRatioResult circuit_mdr(const Circuit& c);

/// FEAS: a legal retiming (PIs and POs at lag 0) with clock period <=
/// `period`, or nullopt if none exists.
std::optional<std::vector<int>> feasible_retiming(const Circuit& c, std::int64_t period);

struct RetimeResult {
  std::int64_t period = 0;
  std::vector<int> r;
};

/// Least period any legal retiming with the PIs and POs at lag 0 reaches,
/// and a retiming reaching it.
RetimeResult min_period_retiming(const Circuit& c);

/// The PIs and POs of a circuit: the nodes a retiming keeps at lag 0.
std::vector<NodeId> circuit_io(const Circuit& c);

/// min_period_retiming on a circuit with its PIs and POs pinned, applied in
/// place; returns the period.
std::int64_t retime_min_period(Circuit& c);

/// The pre-rewrite BLIF reader, kept verbatim. Throws turbosyn::Error with
/// the same "source:line:" diagnostics as read_blif.
Circuit read_blif_reference(std::istream& in, const std::string& source_name = "<blif>");
Circuit read_blif_reference(const std::string& text, const std::string& source_name = "<blif>");

/// The message of a turbosyn::Error without its "check failed: <cond> at
/// <file>:<line> — " prefix, which names the checking source line rather
/// than the input.
std::string diagnostic(const Error& e);

/// Reads `text` with read_blif_string and read_blif_reference and compares
/// the verdict, the diagnostic, canonical_circuit_form and the write_blif
/// bytes. Empty when the two readers agree on all four; otherwise the first
/// difference.
std::string blif_reader_disagreement(const std::string& text,
                                     const std::string& source_name = "<blif>");

/// A one-gate BLIF model whose .names block has `arity` inputs and `rows`
/// random cubes with output bit `polarity`; each literal is a don't-care
/// with probability 1/2.
std::string random_cover_blif(Rng& rng, int arity, int rows, char polarity);

/// The root's function over `cut` (variable i = cut[i]): copy (u, w) of a
/// gate reads copy (from, w + weight) of each fanin edge, in fanin order,
/// and the walk stops at cut members. The cut must separate (root, 0) from
/// every source copy; throws turbosyn::Error when the walk reaches a
/// source that is not a member.
TruthTable cut_function_reference(const Circuit& c, NodeId root,
                                  std::span<const SeqCutNode> cut);

/// decompose_for_label as the bit-serial reference: the same support
/// restriction, bound-set search and backtracking, with column classes kept
/// as one table each and the encoder and residue tables filled bit by bit.
DecompResult decompose_for_label_reference(const TruthTable& f, std::span<const int> eff_labels,
                                           int target_label, const DecompOptions& options);

}  // namespace turbosyn::oracle
