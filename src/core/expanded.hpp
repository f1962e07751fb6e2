#pragma once
// Expanded circuits E_v and the partial flow network of TurboMap/TurboSYN.
//
// E_v (Pan–Liu) represents every LUT rooted at v realizable under retiming
// and node replication: its nodes are pairs u^w = (u, w) where w is the
// total register count along a path from u to v; every path from u^w to the
// root crosses exactly w registers. For a target ratio phi and height limit
// H, a node u^w may be a cut node (LUT input) iff
//     eff(u, w) + 1 = l(u) - phi*w + 1 <= H,
// otherwise it is "mandatory" — it cannot sit on the cut, though it may lie
// either inside the LUT or beyond a deeper cut. The network therefore gives
// allowed nodes capacity 1 and mandatory nodes infinite capacity.
//
// Expansion is exact through mandatory chains (they terminate because every
// cycle carries a register, which lowers eff by at least phi per lap) and
// continues `extra_levels` past the first allowed frontier to catch
// reconvergent cuts; remaining frontier nodes hang off the source. A node
// budget keeps degenerate cases bounded (treated conservatively as "no cut").
//
// Zero-state safety: a copy u^w with w >= 1 whose gate function evaluates to
// 1 on the all-zero input is never expanded, so it can only be a cut input,
// never LUT interior. An interior copy at w >= 1 is recomputed for early
// cycles from pre-history (pre-reset) values; since every register powers up
// at 0, that recomputation matches the register contents exactly when the
// all-zero input yields 0 — zeros are then a fixpoint of the recomputation
// and the mapped network reproduces the original's zero-state behavior from
// cycle 0. Without this rule, a register-crossed NOR/NOT-style gate inside a
// LUT boots to f(0..0) = 1 where the original read 0, and on loops that
// never resynchronize the difference persists at every cycle.
//
// A cut test is a node-cut augmenting-path search (graph/node_cut.hpp) run
// directly over the expansion's fanin runs: the root is the sink, and PI
// copies and unexpanded frontier copies hang off the source. It stops after
// at most size_limit + 1 paths, each one depth-first search over at most
// node_budget nodes. separates() is the flow-free alternative when a
// candidate cut is already known: one search from the root that stops at
// the candidate's members. refuted_by() is its dual: a failed test leaves
// size_limit + 1 units of flow (flow_paths()), and when that many of those
// unit paths are still a flow in a rebuilt network, max-flow/min-cut
// duality says the test would fail again.
//
// Within one build the unit-capacity flow carries forward. find_cut()
// starts from the flow its build already has: the paths refuted_by()
// accepted, or the flow of the last find_cut(), so TurboSYN's Cmax
// resynthesis cut at the K-cut test's height goes on from the test's K + 1
// units. The cut closest to the source is the same for every maximum flow,
// so the cut found does not depend on where the flow started; only
// augmentations() does. find_low_cost_cut() (weighted capacities) always
// starts from zero.
//
// One ExpandedNetwork instance is rebuildable: build() re-targets it to a
// new (root, height) query while keeping every internal buffer — the node
// store, the open-addressing (node, w) index, the expansion worklist and the
// whole augmenting-path state — so the label computation's per-gate cut test
// allocates nothing in steady state. CutScratch bundles one such instance
// with the label engine's other reusable buffers.
//
// A build reads the labels, phi and the height limit only through each
// copy's allowed flag (see copies()), so the label engine skips a rebuild
// whose non-root flags match the gate's last build and takes that build's
// verdict (GateRecord, core/labeling.hpp).

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "base/truth_table.hpp"
#include "graph/node_cut.hpp"
#include "netlist/circuit.hpp"

namespace turbosyn {

/// A node of E_v: original node plus accumulated register count to the root.
struct SeqCutNode {
  NodeId node = kNoNode;
  int w = 0;
  bool operator==(const SeqCutNode&) const = default;
  bool operator<(const SeqCutNode& o) const {
    return node != o.node ? node < o.node : w < o.w;
  }
};

/// Unit flow paths through E_v. Path p is copies[ends[p - 1], ends[p]) with
/// ends[-1] = 0: the root first, then at each step a fanin of the copy
/// before, ending at a source-fed (unexpanded) copy.
struct FlowPaths {
  std::span<const SeqCutNode> copies;
  std::span<const std::int32_t> ends;
};

struct ExpandedOptions {
  int extra_levels = 2;       // expansion past the first allowed frontier
  int node_budget = 20000;    // max E_v nodes per query
};

/// The partial flow network of E_v for one (root, height-limit) query.
class ExpandedNetwork {
 public:
  /// Empty network; call build() before querying. Reusing one instance
  /// across queries retains all internal buffers.
  ExpandedNetwork() = default;

  /// labels: current node label lower bounds; sources (PIs/constants) must
  /// be 0 there. phi >= 1.
  ExpandedNetwork(const Circuit& c, std::span<const int> labels, int phi, NodeId root,
                  int height_limit, const ExpandedOptions& options);

  /// Re-targets this network to a new query, reusing all internal storage.
  /// Results of previous queries (cuts, functions) must not be used after.
  void build(const Circuit& c, std::span<const int> labels, int phi, NodeId root,
             int height_limit, const ExpandedOptions& options);

  /// False when no cut at this height can exist at all (a source copy was
  /// mandatory, or the node budget was exhausted).
  bool viable() const { return viable_; }

  /// Augmenting paths found by the last find_cut()/find_low_cost_cut()
  /// since build() (0 before the first), beyond the flow it started from.
  std::int64_t augmentations() const { return augmentations_; }

  /// Minimum cut with all cut nodes allowed at the height limit and size
  /// <= size_limit; nullopt if none (or !viable()). Sorted, deterministic:
  /// the cut is the one closest to the source, whichever flow the search
  /// starts from. It starts from the unit flow this build holds when that
  /// is at most size_limit + 1 units: the flow of the last find_cut(), or
  /// else the paths the last refuted_by() accepted; otherwise from zero.
  std::optional<std::vector<SeqCutNode>> find_cut(int size_limit);

  /// The paper's low-cost K-cut (Step 2): among all cuts of minimum size,
  /// prefer one whose nodes satisfy `shared` (signals already used as LUT
  /// inputs elsewhere), maximizing input sharing. Implemented with weighted
  /// capacities (B per node + 1 penalty for non-shared), so the min cut is
  /// lexicographically (size, #non-shared)-minimal, and a path may push
  /// more than one unit.
  std::optional<std::vector<SeqCutNode>> find_low_cost_cut(
      int size_limit, const std::function<bool(const SeqCutNode&)>& shared);

  /// Checks a cut certificate without running the flow: true iff the
  /// network is viable, every member of `cut` is a copy in this network that
  /// is allowed at the height limit, and every path from the root down the
  /// fanins to a source-fed (unexpanded) copy crosses a member. Then `cut`
  /// bounds the flow by its size, so find_cut(k) succeeds for any
  /// k >= cut.size(). O(size of the network); a cut kept from an earlier
  /// query is checked, never trusted.
  bool separates(std::span<const SeqCutNode> cut);

  /// After a find_cut(size_limit) that failed on a viable network: the
  /// size_limit + 1 units of flow it ended with, as that many unit
  /// root-to-source paths on which no allowed copy appears twice. Empty
  /// after any other query. Valid until the next build() or cut query.
  FlowPaths flow_paths();

  /// Checks a no-cut certificate without running the flow, and keeps what
  /// still holds as the start of the next find_cut(). A path is accepted
  /// when in this network every copy on it is interned, it starts at the
  /// root, each step goes from an expanded copy to one of its fanins, it
  /// ends at a source-fed copy, and no allowed copy on it other than the
  /// root lies on a path accepted before. True iff the network is viable
  /// and size_limit + 1 paths were accepted (checking stops there): they
  /// are a flow above size_limit, so find_cut(size_limit) fails. Either way
  /// the accepted paths replace the flow the next find_cut() on this build
  /// starts from. O(total path length + fanins on the paths); paths kept
  /// from an earlier query are checked, never trusted.
  bool refuted_by(FlowPaths paths, int size_limit);

  /// Truth table of the root over the given cut (variable i = cut[i]).
  /// The cut must separate the root in E_v (as returned by find_cut). One
  /// post-order pass lists the copies between the root and the cut; they
  /// are then evaluated word-parallel, a block of table words at a time,
  /// into a reused arena. The result depends only on
  /// the circuit, the root and the cut: the copies inside a separating cut
  /// and their fanins are fixed by the circuit's fanins and register counts.
  TruthTable cut_function(std::span<const SeqCutNode> cut);

  int num_expanded_nodes() const { return static_cast<int>(num_nodes_); }

  /// A copy of the current build.
  struct Copy {
    SeqCutNode id;
    bool allowed = false;   // may be a cut node
    bool expanded = false;  // fanins materialized
  };

  /// The node store of the current build, read-only: every interned copy in
  /// build order, the root first. The build reads labels, phi and the
  /// height limit only through allowed(), once per copy as it is interned,
  /// and the root's own flag changes nothing (the root is always expanded,
  /// and it is the sink, whose capacity no path crosses). So a build at
  /// other labels in which every non-root copy listed here keeps its
  /// allowed flag makes the same copies, fanin runs, capacities and source
  /// flags: the same network and the same K-cut verdict. GateRecord
  /// (core/labeling.hpp) keeps this list per gate.
  std::span<const Copy> copies() const { return std::span(nodes_).first(num_nodes_); }

 private:
  int intern(SeqCutNode id);
  int find_index(std::uint64_t key) const;  // -1 if absent
  void index_grow();
  bool allowed(SeqCutNode id) const;
  void expand();
  /// Fills the flow network's capacities (capacity_of(node) for allowed
  /// nodes, kUncuttable for the rest) and flags.
  template <class CapacityOf>
  void set_capacities(CapacityOf capacity_of);
  /// The cut of the flow that ended at `value`, when that is within
  /// `value_limit`, as sorted copies; records the augmentations.
  std::optional<std::vector<SeqCutNode>> read_cut(std::int64_t value, std::int64_t value_limit);
  NodeCut::Network flow_network() const;
  /// cut_function()'s evaluation of cone_ into root_words_, B words a pass.
  template <std::size_t B>
  void evaluate_cone();

  const Circuit* circuit_ = nullptr;
  std::span<const int> labels_;
  int phi_ = 1;
  NodeId root_ = kNoNode;
  int height_limit_ = 0;
  ExpandedOptions options_;
  bool viable_ = true;
  std::int64_t augmentations_ = 0;
  bool unit_flow_failed_ = false;  // the last query was a find_cut() the flow failed
  // The unit-capacity flow this build already has: none, the paths the last
  // refuted_by() accepted (seed_nodes_/seed_ends_, in NodeCut's node
  // indices), or the flow cut_ holds since the last find_cut().
  enum class UnitFlow : std::uint8_t { kNone, kSeed, kHeld };
  UnitFlow unit_flow_ = UnitFlow::kNone;
  std::vector<std::int32_t> seed_nodes_;
  std::vector<std::int32_t> seed_ends_;

  // Node store: slots [0, num_nodes_) are live for the current query; the
  // vectors are never shrunk. Node i's fanins are the contiguous run
  // fanin_pool_[fanin_begin_[i], fanin_end_[i]): nodes expand one at a
  // time, so each node's child indices land in one run of the flat pool.
  std::vector<Copy> nodes_;
  std::vector<std::int32_t> fanin_begin_;
  std::vector<std::int32_t> fanin_end_;
  std::size_t num_nodes_ = 0;
  std::vector<std::int32_t> fanin_pool_;
  // High-water mark of the node count across builds; build() reserves the
  // scratch up front so repeated cut tests stop reallocating mid-query.
  std::size_t hw_nodes_ = 0;

  // Open-addressing packed-(node, w) -> index map with O(1) epoch clearing.
  struct IndexSlot {
    std::uint64_t key = 0;
    int value = 0;
    std::uint32_t epoch = 0;
  };
  std::vector<IndexSlot> index_slots_;
  std::uint32_t index_epoch_ = 0;
  std::size_t index_size_ = 0;  // live entries this epoch

  // Reused expansion worklist and cut-test buffers.
  std::vector<int> slack_;
  std::vector<int> worklist_;
  std::vector<std::int64_t> capacity_;
  std::vector<std::uint8_t> flags_;  // NodeCut flags of the last cut query
  std::vector<std::uint8_t> mark_;   // separates()/refuted_by() marks
  std::vector<SeqCutNode> path_copies_;
  NodeCut cut_;
  // cut_function(): the cone as post-order steps (slot_[i] = copy i's step,
  // -1 when outside the cone), their gate rows and fanin steps in flat
  // pools, the word arena the steps are evaluated into, and the root table.
  struct ConeStep {
    int var = -1;             // >= 0: the cut variable this copy is
    bool complement = false;  // rows are the off-set: complement the sum
    std::uint32_t rows_begin = 0;  // cone_rows_[rows_begin, rows_end)
    std::uint32_t rows_end = 0;
    std::uint32_t fanins_begin = 0;  // cone_fanins_[fanins_begin, fanins_end)
    std::uint32_t fanins_end = 0;
  };
  static constexpr std::size_t kBlockWords = 16;
  std::vector<std::int32_t> slot_;
  std::vector<ConeStep> cone_;
  std::vector<std::uint32_t> cone_rows_;
  std::vector<std::int32_t> cone_fanins_;
  std::vector<std::uint64_t> arena_;
  std::vector<std::uint64_t> root_words_;
};

/// Scratch arena for the label-computation hot path: a reusable
/// ExpandedNetwork (node store, hash index, worklists, augmenting-path
/// state, cut-function word arena) plus the epoch-cleared buffers of the PLD isolation check. Thread
/// one through label_update()/realize_node() to make repeated cut tests
/// allocation-free; each concurrent thread needs its own instance.
struct CutScratch {
  ExpandedNetwork net;
  // scc_isolated() scratch (labeling.cpp): per-node grounded stamps with
  // O(1) epoch clearing, and the BFS worklist.
  std::vector<std::uint32_t> iso_mark;
  std::uint32_t iso_epoch = 0;
  std::vector<NodeId> iso_queue;
};

}  // namespace turbosyn
