#pragma once
// Retiming on the unit-delay retiming graph: the clock period of a network
// and the application of a lag vector.
//
// The flows never search for a retiming: they read one off longest-path
// labels (pipeline.hpp), and the auditor checks it edge by edge.

#include <cstdint>
#include <span>

#include "graph/digraph.hpp"
#include "netlist/circuit.hpp"

namespace turbosyn {

/// Longest zero-weight-path delay; throws turbosyn::Error if the zero-weight
/// subgraph has a cycle (combinational loop).
std::int64_t clock_period(const Digraph& g, std::span<const int> delay);

/// Convenience for circuits (unit delay model).
std::int64_t circuit_clock_period(const Circuit& c);

/// Applies a retiming in place: w_r(e) = w(e) + r(to) - r(from).
/// Throws if any weight would become negative.
void apply_retiming(Circuit& c, std::span<const int> r);

}  // namespace turbosyn
