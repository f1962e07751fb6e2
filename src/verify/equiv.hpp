#pragma once
// Equivalence checking between circuits.
//
// - Combinational: formal, via ROBDDs built over the shared PI space (PIs
//   matched by name, POs by display name). Exact for circuits whose BDDs fit
//   the node budget — the mapped cones and test circuits here are small.
// - Sequential: bounded, from the all-zero initial state, by random
//   co-simulation of 64 independent runs at once (one per simulator lane),
//   compared from cycle 0.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "netlist/circuit.hpp"

namespace turbosyn {

struct EquivCounterexample {
  /// Combinational: the differing PI assignment, indexed by the first
  /// circuit's pis() order. A vector (not a packed word) so circuits with
  /// more than 64 PIs report exact counterexamples. Empty for sequential
  /// counterexamples.
  std::vector<bool> assignment;
  /// Sequential: index of the first differing cycle (0 for combinational).
  std::uint64_t cycle = 0;
  /// Sequential: the lowest run (simulator lane) that differs at that cycle.
  int run = 0;
  std::string po_name;
};

/// Formal combinational equivalence. Requirements: every edge weight 0 in
/// both circuits, same PI name set, same PO display-name set. Returns
/// nullopt when equivalent, else a counterexample.
std::optional<EquivCounterexample> combinational_counterexample(const Circuit& a,
                                                                const Circuit& b);
bool combinationally_equivalent(const Circuit& a, const Circuit& b);

struct SequentialCheckOptions {
  int cycles = 256;  // simulated cycles of each of the 64 runs
  std::uint64_t seed = 1;
};

/// Bounded sequential check by co-simulation of 64 random runs in one pass
/// (random_lane_stimulus from `seed`); nullopt when no difference was found,
/// else the first differing (cycle, PO, run).
std::optional<EquivCounterexample> sequential_counterexample(
    const Circuit& a, const Circuit& b, const SequentialCheckOptions& options = {});
bool sequentially_equivalent_bounded(const Circuit& a, const Circuit& b,
                                     const SequentialCheckOptions& options = {});

}  // namespace turbosyn
