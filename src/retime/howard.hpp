#pragma once
// Howard's policy-iteration algorithm for the maximum cycle ratio.
//
// The flows' MDR solver: max over cycles of delay(C)/registers(C), the
// quantity cycle_ratio.hpp computes by binary search + Bellman–Ford. Policy
// iteration converges in few iterations in practice; the binary search stays
// as the auditor's independent recomputation.
//
// Formulation: edge value val(e) = delay(head(e)), edge time tau(e) = w(e).
// We seek the maximum of sum(val)/sum(tau) over cycles with sum(tau) > 0.
// Combinational loops (sum(tau) == 0 with positive value) are rejected, as
// in cycle_ratio.hpp.

#include <span>

#include "retime/cycle_ratio.hpp"

namespace turbosyn {

/// Exact MDR ratio via Howard's algorithm. Throws turbosyn::Error on a
/// zero-register positive-delay cycle. Returns ratio 0 for acyclic graphs.
CycleRatioResult max_cycle_ratio_howard(const Digraph& g, std::span<const int> delay);

/// Convenience for circuits (unit delay model).
CycleRatioResult circuit_mdr_howard(const Circuit& c);

}  // namespace turbosyn
