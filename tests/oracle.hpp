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

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "base/rational.hpp"
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

}  // namespace turbosyn::oracle
