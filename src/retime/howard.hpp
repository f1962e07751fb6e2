#pragma once
// Maximum delay-to-register (MDR) ratio by Howard's policy iteration: the
// product's one MDR solver.
//
// The ratio is max over directed cycles C of delay(C) / registers(C).
// Papaefthymiou's theory (paper refs [16, 22]) says it is the only lower
// bound on the clock period once both retiming and pipelining are allowed,
// so TurboSYN minimizes the MDR ratio of the mapped network. The auditor
// (verify/audit.hpp) does not recompute it: it checks a potential and a
// critical-cycle certificate for the claimed ratio instead.
//
// Formulation: edge value val(e) = delay(head(e)), edge time tau(e) = w(e).
// We seek the maximum of sum(val)/sum(tau) over cycles with sum(tau) > 0.
// Combinational loops (sum(tau) == 0 with positive value) are rejected.

#include <span>
#include <vector>

#include "base/rational.hpp"
#include "graph/digraph.hpp"
#include "netlist/circuit.hpp"

namespace turbosyn {

struct CycleRatioResult {
  /// 0 when the graph has no cycle with positive delay.
  Rational ratio = Rational(0, 1);
  /// Edges of a critical cycle achieving the ratio (empty if ratio is 0).
  std::vector<EdgeId> critical_cycle;
};

/// Exact MDR ratio via Howard's algorithm. Throws turbosyn::Error on a
/// zero-register positive-delay cycle. Returns ratio 0 for acyclic graphs.
CycleRatioResult max_cycle_ratio_howard(const Digraph& g, std::span<const int> delay);

/// Convenience for circuits (unit delay model).
CycleRatioResult circuit_mdr_howard(const Circuit& c);

}  // namespace turbosyn
