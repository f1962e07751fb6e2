#pragma once
// Leiserson–Saxe retiming on the unit-delay retiming graph.
//
// clock_period: longest purely-combinational (zero-weight) path delay.
// feasible_retiming: Leiserson–Saxe FEAS — the W/D difference constraints
// solved by Bellman–Ford — returning a legal retiming with period <= c iff
// one exists. PIs and POs are pinned (r = 0) so I/O latency is preserved;
// pipelining (see pipeline.hpp) is the transformation that trades latency
// for period. RetimingTable builds W/D once and answers every target period
// and pipeline depth from it.

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

/// Work done by a RetimingTable, summed over its solves.
struct RetimeWork {
  std::int64_t wd_builds = 0;    // all-pairs W/D builds (0 or 1)
  std::int64_t constraints = 0;  // difference constraints emitted
  std::int64_t bf_rounds = 0;    // Bellman–Ford relaxation rounds
};

/// The Leiserson–Saxe W/D pairs of one retiming graph, built once (on the
/// first exact solve) and solved for any target period c and pipeline depth
/// `stages`.
///
/// Pipelining by `stages` adds `stages` registers to every fanout edge of a
/// node in `pis` and every fanin edge of a node in `pos`. PIs have no fanin
/// and POs no fanout, so a u→v path crosses such an edge only as its first
/// edge (u ∈ PI) or its last (v ∈ PO): W(u,v) shifts by
/// stages·([u∈PI] + [v∈PO]) and D(u,v), the delay of the minimum-W paths,
/// does not change. Graphs above 1500 nodes get no table (exact() is false):
/// every solve then runs the conservative increment-only FEAS.
class RetimingTable {
 public:
  /// `pis` must have no fanin and `pos` no fanout; solves accept stages in
  /// [0, max_stages].
  RetimingTable(Digraph g, std::span<const int> delay, std::span<const NodeId> pinned,
                std::span<const NodeId> pis = {}, std::span<const NodeId> pos = {},
                int max_stages = 0);

  /// feasible_retiming() on the graph pipelined by `stages`.
  std::optional<std::vector<int>> feasible(std::int64_t c, int stages = 0);
  /// min_period_retiming() on the un-pipelined graph.
  RetimeResult min_period();

  bool exact() const { return exact_; }
  const RetimeWork& work() const { return work_; }

 private:
  /// One reachable pair (u, v) of row u, int32 to halve the n² table.
  struct Pair {
    NodeId v;
    std::int32_t w;  // W(u,v) of the un-pipelined graph
    std::int32_t d;  // D(u,v)
  };
  /// A pipelined edge: its un-pipelined weight and how many I/O ends it has.
  struct IoEdge {
    EdgeId e;
    std::int64_t base;
    int ends;
  };

  void set_stages(int stages);
  void build();
  std::optional<std::vector<int>> solve_exact(std::int64_t c);
  std::optional<std::vector<int>> solve_conservative(std::int64_t c) const;

  Digraph g_;  // carries the weights of the current `stages_`
  std::vector<int> delay_;
  std::vector<NodeId> pinned_;
  std::vector<char> is_pi_;
  std::vector<char> is_po_;
  std::vector<IoEdge> io_edges_;
  int max_stages_ = 0;
  int stages_ = 0;
  bool exact_ = false;
  std::vector<std::vector<Pair>> rows_;  // rows_[u]: v ascending
  RetimeWork work_;
};

// ---- Circuit-level conveniences (unit delay model, PIs/POs pinned) ----

std::int64_t circuit_clock_period(const Circuit& c);

/// Applies a retiming in place: w_r(e) = w(e) + r(to) - r(from).
/// Throws if any weight would become negative.
void apply_retiming(Circuit& c, std::span<const int> r);

/// Retimes the circuit to minimum clock period; returns the new period.
std::int64_t retime_min_period(Circuit& c);

}  // namespace turbosyn
