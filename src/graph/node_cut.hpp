#pragma once
// Minimum node cuts by augmenting paths on an implicit node-split network.
//
// The K-feasible cut tests of FlowMap/TurboMap/TurboSYN ask one question:
// does the cone below a root have a cut of at most K nodes? That is at most
// K+1 augmenting paths, so there is no general max-flow here. The network is
// the caller's own fanin lists over nodes 0..n-1: each fanin u of v is an
// uncapacitated edge u -> v. Every node has an implicit in-half and out-half
// joined by an arc of capacity `capacity[v]` (kUncuttable: never on a cut).
// Nodes flagged kFromSource hang off the source by an uncapacitated arc;
// nodes flagged kSink are merged into the sink, so their own fanout is never
// traversed.
//
// run() derives the fanout lists from the fanin lists, then augments along
// residual paths, each found by one depth-first search that takes one
// residual arc at a time (each half-node keeps its place in its arc list,
// so a search that heads straight for the sink touches little else), and
// stops as soon as the flow exceeds the limit. Paths need not be
// shortest: each carries at least one unit, so there are still at most
// limit + 1. When it ends at or below the limit, the final, failed search
// has marked the whole set reachable from the source in the residual
// network. That set is the same for every maximum flow, so cut() — the
// nodes whose in-half is reached and whose out-half is not — is the unique
// minimum cut closest to the source, whichever paths were found. When it
// ends above the limit, the path that crossed it is pushed only up to
// limit + 1 units, and flow_paths() splits that flow into limit + 1 unit
// sink-to-source paths: a certificate that no cut of size <= limit exists.
//
// The flow need not start from zero. resume() keeps augmenting the flow the
// instance holds on the same network, so a test that failed at one limit
// continues to a larger one without re-finding its units; seed() replaces
// the held flow by given unit paths (a failed test's flow_paths(), checked
// again on a rebuilt network) before resume() goes on from them. A search
// from any starting flow ends at a maximum flow, and the cut read off its
// last failed search is again the one closest to the source: the value and
// the cut equal a cold run()'s, and only the number of paths differs.
//
// One instance is reusable: every buffer keeps its capacity across runs, so
// repeated tests on networks no larger than an earlier one allocate nothing.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace turbosyn {

class NodeCut {
 public:
  static constexpr std::int64_t kUncuttable = std::numeric_limits<std::int64_t>::max() / 4;
  static constexpr std::uint8_t kFromSource = 1;
  static constexpr std::uint8_t kSink = 2;

  /// A network over nodes 0..n-1 (n = capacity.size()). Node v's fanins are
  /// fanins[fanin_begin[v] .. fanin_end[v]); a CSR offset array o passes as
  /// fanin_begin = o[0..n) and fanin_end = o[1..n].
  struct Network {
    std::span<const std::int32_t> fanin_begin;
    std::span<const std::int32_t> fanin_end;
    std::span<const std::int32_t> fanins;
    std::span<const std::int64_t> capacity;  // per node; kUncuttable = infinite
    std::span<const std::uint8_t> flags;     // per node: kFromSource | kSink
  };

  /// Unit paths of a flow: path p is nodes[ends[p - 1], ends[p]), with
  /// ends[-1] = 0.
  struct Paths {
    std::span<const std::int32_t> nodes;
    std::span<const std::int32_t> ends;
  };

  /// Maximum flow from the source to the sink, or limit + 1 as soon as the
  /// flow exceeds `limit` (which must be below kUncuttable; a path through
  /// uncuttable nodes alone exceeds any such limit). The same as seed(net,
  /// {}) followed by resume(net, limit).
  std::int64_t run(const Network& net, std::int64_t limit);

  /// Replaces the held flow by one unit along each of `paths`, in the form
  /// flow_paths() returns: a sink first, then at each step a fanin of the
  /// node before, ending at a source-fed node, with no node on more paths
  /// than its capacity. flow() is then the number of paths.
  void seed(const Network& net, Paths paths);

  /// Continues augmenting the held flow (of the last run() or seed() on
  /// `net`, with the same fanins, capacities and flags) and returns as
  /// run() does: the maximum flow, or limit + 1 once the flow exceeds
  /// `limit`. Requires flow() <= limit + 1; at flow() == limit + 1 no
  /// search runs.
  std::int64_t resume(const Network& net, std::int64_t limit);

  /// Units of the held flow.
  std::int64_t flow() const { return flow_; }

  /// After a run() or resume() on `net` that returned a value > its limit:
  /// the limit + 1 units of flow it holds, as limit + 1 unit paths. Each path starts at a
  /// sink, steps to a fanin of the node before it, and ends at the first
  /// source-fed node it reaches. A node of capacity c lies on at most c
  /// paths (the sink that starts a path is not counted). On acyclic fanin
  /// lists every path is simple. Valid until the next run().
  Paths flow_paths(const Network& net);

  /// Augmenting paths found by the last run() or resume(), the one that
  /// crossed the limit included: at most limit + 1 - (the flow it started
  /// from), as every path carries >= 1 unit.
  std::int64_t paths() const { return paths_; }

  /// After a run() or resume() that returned a value <= its limit: the
  /// minimum cut closest to the source, as ascending node indices.
  std::span<const std::int32_t> cut() const { return cut_; }

 private:
  /// Derives the fanout lists of `net` and clears the flow.
  void reset(const Network& net);
  /// One depth-first search over the residual network; true iff it reached
  /// the sink, in which case `parent_`/`via_` hold the path ending at half
  /// `sink_hit_`.
  bool find_path(const Network& net);
  /// Residual capacity of the recorded path.
  std::int64_t bottleneck(const Network& net) const;
  /// Pushes `amount` units along the recorded path.
  void push(std::int64_t amount);

  // Half-node h: in(v) = 2v, out(v) = 2v + 1.
  std::vector<std::int32_t> fanout_offset_;  // n + 2 entries
  std::vector<std::int32_t> fanout_slot_;    // fanin slots s with fanins[s] = u, by u
  std::vector<std::int32_t> slot_head_;      // node whose fanin list holds slot s
  std::vector<std::int32_t> sources_;
  // Per node; a sink's entry counts the units sent by a source arc straight
  // into it (a sink's own arc is never crossed).
  std::vector<std::int64_t> node_flow_;
  std::vector<std::int64_t> edge_flow_;  // per fanin slot
  std::vector<std::uint32_t> seen_;      // per half: epoch stamp of the last visit
  std::uint32_t epoch_ = 0;
  std::vector<std::int32_t> parent_;  // per half: predecessor on the path, -1 = source
  std::vector<std::int32_t> via_;     // per half: fanin slot crossed, -1 = the node's own arc
  std::vector<std::int32_t> next_;    // per half: the search's place in its arc list
  std::vector<std::int32_t> stack_;   // the search's current path of halves
  std::vector<std::int32_t> cut_;
  // flow_paths() scratch and result.
  std::vector<std::int64_t> remaining_;  // per fanin slot: flow not yet on a path
  std::vector<std::int32_t> next_slot_;  // per node: first slot that may have some
  std::vector<std::int32_t> path_nodes_;
  std::vector<std::int32_t> path_ends_;
  std::int32_t sink_hit_ = -1;
  std::int64_t flow_ = 0;
  std::int64_t paths_ = 0;
};

}  // namespace turbosyn
