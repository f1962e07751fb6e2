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
//
// Arithmetic is integer. A policy cycle's ratio sigma is the pair
// (val, tau) in lowest terms, and ratios compare by cross-multiplying in
// 128 bits. A node's potential d is stored as d * tau, an int64 numerator
// over its sigma's denominator; nodes with equal ratios hold equal reduced
// pairs, so their potentials compare directly. Overflow: let D be the
// delay and W the register count summed over an SCC. val <= D and
// tau <= W. A potential sums val(e)*tau - val*tau(e) along a simple path
// of the SCC, so |d * tau| <= 2DW, and an improvement candidate adds one
// edge, at most 2DW more. The solver checks 4DW < 2^63 per SCC and throws
// turbosyn::Error otherwise. Only the winning pair becomes a Rational.

#include <vector>

#include "base/rational.hpp"
#include "netlist/circuit.hpp"

namespace turbosyn {

struct CycleRatioResult {
  /// 0 when the graph has no cycle with positive delay.
  Rational ratio = Rational(0, 1);
  /// Edges of a critical cycle achieving the ratio (empty if ratio is 0).
  std::vector<EdgeId> critical_cycle;
};

/// Exact MDR ratio of a circuit (unit delay model) via Howard's algorithm.
/// Throws turbosyn::Error on a zero-register positive-delay cycle. Returns
/// ratio 0 for acyclic circuits.
CycleRatioResult circuit_mdr_howard(const Circuit& c);

}  // namespace turbosyn
