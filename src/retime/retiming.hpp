#pragma once
// Leiserson–Saxe retiming on the unit-delay retiming graph.
//
// clock_period: longest purely-combinational (zero-weight) path delay.
// feasible_retiming: Leiserson–Saxe FEAS — the W/D difference constraints
// solved by Bellman–Ford — returning a legal retiming with period <= c iff
// one exists. PIs and POs are pinned (r = 0) so I/O latency is preserved;
// pipelining (see pipeline.hpp) is the transformation that trades latency
// for period. The synthesis flows pipeline from longest-path labels instead;
// FEAS serves the clock-period engine and the auditor.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "netlist/circuit.hpp"

namespace turbosyn {

/// Longest zero-weight-path delay; throws turbosyn::Error if the zero-weight
/// subgraph has a cycle (combinational loop).
std::int64_t clock_period(const Digraph& g, std::span<const int> delay);

/// FEAS. Returns the retiming r (one lag per node, pinned nodes forced to 0)
/// achieving period <= c, or nullopt if impossible.
std::optional<std::vector<int>> feasible_retiming(const Digraph& g, std::span<const int> delay,
                                                  std::int64_t c, std::span<const NodeId> pinned);

/// Minimum achievable period under retiming (binary search over FEAS) plus a
/// witness retiming.
struct RetimeResult {
  std::int64_t period = 0;
  std::vector<int> r;
};
RetimeResult min_period_retiming(const Digraph& g, std::span<const int> delay,
                                 std::span<const NodeId> pinned);

/// Largest graph FEAS solves exactly. The exact solver builds the
/// Leiserson–Saxe W/D pairs once per graph (about 27 MB at the limit); above
/// it an increment-only FEAS takes over, which never returns an illegal
/// retiming but may miss solutions that need lags below the pinned I/O.
inline constexpr int kExactRetimingLimit = 1500;

// ---- Circuit-level conveniences (unit delay model, PIs/POs pinned) ----

std::int64_t circuit_clock_period(const Circuit& c);

/// Applies a retiming in place: w_r(e) = w(e) + r(to) - r(from).
/// Throws if any weight would become negative.
void apply_retiming(Circuit& c, std::span<const int> r);

/// Retimes the circuit to minimum clock period; returns the new period.
std::int64_t retime_min_period(Circuit& c);

}  // namespace turbosyn
