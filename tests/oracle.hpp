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
//     on the W/D matrices (one lexicographic Dijkstra per source), pinned
//     nodes sharing lag 0, and the OPT1 binary search over periods.
//   - read_blif_reference: the line-by-line istream BLIF reader (getline,
//     a token vector per line, one AND per cover literal) that the one-pass
//     reader in netlist/blif.cpp replaced; blif_reader_disagreement runs
//     both on one text and compares everything they produce.

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
#include "graph/digraph.hpp"
#include "netlist/circuit.hpp"
#include "retime/howard.hpp"

namespace turbosyn::oracle {

struct PositiveCycle {
  bool found = false;
  /// Edges of one positive cycle, in traversal order (empty if !found).
  std::vector<EdgeId> edges;
};

/// A cycle whose total cost (sum of cost(e) over its edges) is > 0, if any.
PositiveCycle find_positive_cycle(const Digraph& g,
                                  const std::function<std::int64_t(EdgeId)>& cost);

/// True iff some cycle has delay(C) > ratio * registers(C).
bool has_cycle_above_ratio(const Digraph& g, std::span<const int> delay, const Rational& ratio);

/// Exact MDR ratio and a critical cycle. Throws turbosyn::Error on a
/// zero-register cycle with positive delay.
CycleRatioResult max_delay_to_register_ratio(const Digraph& g, std::span<const int> delay);
CycleRatioResult circuit_mdr(const Circuit& c);

/// FEAS: a legal retiming (pinned nodes at lag 0) with period <= c, or
/// nullopt if none exists.
std::optional<std::vector<int>> feasible_retiming(const Digraph& g, std::span<const int> delay,
                                                  std::int64_t c, std::span<const NodeId> pinned);

struct RetimeResult {
  std::int64_t period = 0;
  std::vector<int> r;
};

/// Least period any legal retiming with the pinned nodes at lag 0 reaches,
/// and a retiming reaching it.
RetimeResult min_period_retiming(const Digraph& g, std::span<const int> delay,
                                 std::span<const NodeId> pinned);

/// Unit delays and the pinned PIs and POs of a circuit.
std::vector<int> circuit_delays(const Circuit& c);
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

}  // namespace turbosyn::oracle
