#pragma once
// Iterative label computation (TurboMap) with sequential functional
// decomposition (TurboSYN) and positive loop detection (PLD).
//
// For a target ratio phi, node labels are lower-bounded iteratively:
//   l(source) = 0,  l(gate) starts at 1,
//   L(v) = max over fanin edges e(u,v) of l(u) - phi*w(e),
//   l_new(v) = L(v)   if a K-cut of E_v with height <= L(v) exists
//                     (or, TurboSYN only, a min-cut of width <= Cmax at
//                      height L(v)-h decomposes with achieved label <= L(v)),
//              L(v)+1 otherwise.
// Lower bounds only grow; the computation converges iff a mapping with MDR
// ratio <= phi exists (no positive loop). SCCs are processed in topological
// order. PLD (the paper's Section 4): after each sweep over an SCC, build
// the predecessor graph
//   Pi[v] = { u : e(u,v) in G, l(u) - phi*w(e) + 1 >= l(v) }   (l(v) > 1)
// and declare a positive loop as soon as the SCC is totally isolated from
// the PIs in it; detection is guaranteed within 6n sweeps for an SCC of n
// nodes (vs the previous n^2 bound, kept for the ablation benchmark).
//
// LabelEngine is the production entry point: one engine amortizes the graph
// analysis (SCCs and the zero-weight sweep order), shares the decomposition
// cache across probes, and warm-starts each plain (TurboMap) probe from the
// nearest previously feasible phi; decomposition probes start cold. Each
// SCC, in topological order, is swept in place in zero-weight topological
// order — the order the 6n PLD bound is proven for. Each gate keeps one
// GateRecord: its last flow-found cut, its last failed test's flow paths,
// and the network its last K-cut test ran on with that test's verdict. An
// update whose network would be the same takes the recorded verdict without
// building it, and one whose stored cut or paths still hold skips the flow.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "base/run_budget.hpp"
#include "core/expanded.hpp"
#include "decomp/roth_karp.hpp"
#include "netlist/circuit.hpp"

namespace turbosyn {

struct LabelOptions {
  int k = 5;
  bool enable_decomposition = false;  // false: TurboMap, true: TurboSYN
  int cmax = 15;                      // max resynthesis cut width (paper: 15)
  int height_span = 3;                // decomposition min-cut heights L(v)..L(v)-span+1
  bool use_pld = true;                // false: fall back to the n^2 stopping criterion
  /// Extra cap on per-SCC sweeps (0 = only the criterion's own bound). Used
  /// by the PLD ablation bench to bound the n^2 baseline's runtime; when the
  /// cap fires the result reports infeasible with Status::kDegraded (a
  /// budget verdict, not an infeasibility certificate).
  std::int64_t sweep_budget = 0;
  /// Deadline / cancellation / resource ceilings; default is unlimited, and
  /// an unlimited budget leaves results bit-identical to the budget-free
  /// code. Copies share state, so the same budget governs the whole run.
  RunBudget budget;
  ExpandedOptions expansion;
};

struct LabelStats {
  std::int64_t sweeps = 0;           // per-SCC iterations, summed
  std::int64_t node_updates = 0;     // LabelUpdate invocations
  // node_updates spent in SCCs whose iteration ended infeasible (the work
  // of proving divergence).
  std::int64_t infeasible_scc_updates = 0;
  std::int64_t cut_tests = 0;        // flow-based K-cut existence tests
  std::int64_t cut_reuses = 0;       // K-cut tests settled by a stored cut, no flow
  std::int64_t cut_refutations = 0;  // K-cut tests settled by stored flow paths, no flow
  std::int64_t network_reuses = 0;   // K-cut tests settled by a network record, no build
  std::int64_t decomp_attempts = 0;  // resynthesis attempts
  std::int64_t decomp_successes = 0;
  std::int64_t cut_functions = 0;    // (gate, cut) functions extracted for attempts
  // Augmenting paths across all cut tests (NodeCut::paths): at most
  // size_limit + 1 per unit-capacity test; a low-cost (weighted) path may
  // push more than one unit.
  std::int64_t flow_augmentations = 0;
  // Budget interference counter (zero on an unlimited run).
  std::int64_t decomp_budget_hits = 0;  // attempts refused by the attempt ceiling
  /// Nodes whose decomposition was abandoned under a resource ceiling, i.e.
  /// the nodes that fell back to their plain K-cut label (sound, possibly
  /// weaker). May contain repeats across sweeps; dedupe before reporting.
  std::vector<NodeId> degraded_nodes;

  /// Adds `from`'s counters (and degraded-node list) onto this.
  void accumulate(const LabelStats& from);
};

struct LabelResult {
  /// True iff the iteration converged: a mapping with MDR ratio <= phi
  /// exists. When false, `status` tells whether that verdict is a genuine
  /// infeasibility certificate (kOk) or budget-imposed (anything else).
  bool feasible = false;
  std::vector<int> labels;  // per node; meaningful when feasible
  int max_po_label = 0;     // for the clock-period (no pipelining) check
  /// kOk: exact. kDegraded: a resource ceiling (sweep or decomposition
  /// budget) altered the computation — feasible results are still valid
  /// mappings, infeasible verdicts are no longer certificates.
  /// kDeadlineExceeded / kCancelled: the run was interrupted; labels did not
  /// converge and must not be used for mapping generation.
  Status status = Status::kOk;
  LabelStats stats;
};

/// The decomposition memo: one entry per (gate, exact cut) holding the cut
/// function reduced to its support (support indices are cut positions).
/// A LabelEngine's memo is shared by all its probes and then handed to
/// mapping generation.
///
/// The function is structural. On a cut that separates the root, every copy
/// between the root and the cut is expanded, an expanded copy's fanins are
/// the circuit's fanins with register counts added, and the zero-state rule
/// depends only on (node, w); labels, phi and the height limit decide which
/// cut is found, never the function over a given cut.
struct DecompCache {
  std::map<std::pair<NodeId, std::vector<SeqCutNode>>, SupportFunction> entries;
};

/// One gate's certificates, kept across sweeps and probes (DESIGN.md §7,
/// "Gate records"): its last flow-found K-cut, its last failed test's K + 1
/// unit flow paths (ExpandedNetwork::flow_paths), and the last network its
/// K-cut test ran on (ExpandedNetwork::copies: the non-root copies in build
/// order with their allowed flags) with that test's verdict. A stored cut
/// that still separates the rebuilt network (ExpandedNetwork::separates)
/// settles the test as passed, stored paths that are still a flow in it
/// (ExpandedNetwork::refuted_by) settle it as failed, and a rebuild whose
/// every recorded copy keeps its flag would make the recorded network
/// again, so its verdict stands and nothing is built. A verdict is kept
/// only with its certificate: kCut means the cut slot holds the cut that
/// passed that test, kNoCut that the paths slot holds the paths that failed
/// it, so a network settles exactly the tests its certificate would settle
/// without a flow. Both certificate slots are kept: a failed test leaves the
/// cut, a passed one the paths. Each slot is a vector as large as the
/// gate's largest certificate so far. A record is trusted, not checked: it
/// serves one circuit, one K and one ExpandedOptions.
class GateRecord {
 public:
  /// Non-root copies a recorded network may hold; a larger one is not
  /// recorded. 48 hold nearly every reusable build of the Table-1 shapes.
  static constexpr std::size_t kCopies = 48;
  /// Copies per path the paths slot may hold: 12 hold nearly every
  /// certificate (99.99% of those of TurboSYN on the Table-1 shapes).
  static constexpr std::size_t kCopiesPerPath = 12;
  enum class Verdict : std::uint8_t { kNone, kCut, kNoCut };

  /// The recorded network's verdict; kNone while no network is recorded.
  Verdict verdict() const { return verdict_; }

  /// True iff a network is recorded and every recorded copy u^w keeps its
  /// flag l(u) - phi*w + 1 <= height.
  bool matches(std::span<const int> labels, int phi, int height) const {
    if (verdict_ == Verdict::kNone) return false;
    for (const ExpandedNetwork::Copy& copy : copies_) {
      const std::int64_t eff =
          static_cast<std::int64_t>(labels[static_cast<std::size_t>(copy.id.node)]) -
          static_cast<std::int64_t>(phi) * copy.id.w;
      if ((eff + 1 <= height) != copy.allowed) return false;
    }
    return true;
  }

  /// Records `net` after the K-cut test on it, which passed iff `found`:
  /// kCut when it passed (the cut slot then holds its cut), kNoCut when it
  /// failed and the paths slot holds its paths, else, or when `net` has
  /// more than kCopies non-root copies, no network.
  void keep_network(const ExpandedNetwork& net, bool found) {
    const std::span<const ExpandedNetwork::Copy> built = net.copies().subspan(1);
    verdict_ = built.size() > kCopies ? Verdict::kNone
               : found                ? Verdict::kCut
               : !path_ends_.empty()  ? Verdict::kNoCut
                                      : Verdict::kNone;
    if (verdict_ != Verdict::kNone) copies_.assign(built.begin(), built.end());
  }
  /// Drops the recorded network and keeps both certificates.
  void forget_network() { verdict_ = Verdict::kNone; }

  /// The stored cut; nullopt while none is stored.
  std::optional<std::span<const SeqCutNode>> cut() const {
    if (!has_cut_) return std::nullopt;
    return std::span(cut_);
  }
  /// Replaces the stored cut.
  void keep_cut(std::span<const SeqCutNode> cut) {
    cut_.assign(cut.begin(), cut.end());
    has_cut_ = true;
  }

  /// The stored flow paths; nullopt while none are stored.
  std::optional<FlowPaths> paths() const {
    if (path_ends_.empty()) return std::nullopt;
    return FlowPaths{path_copies_, path_ends_};
  }
  /// Replaces the stored paths with `paths` when it holds exactly k + 1
  /// paths of at most kCopiesPerPath * (k + 1) copies in all; otherwise the
  /// gate keeps none.
  void keep_paths(FlowPaths paths, int k) {
    const auto num_paths = static_cast<std::size_t>(k + 1);
    if (paths.ends.size() != num_paths || paths.copies.size() > kCopiesPerPath * num_paths) {
      path_copies_.clear();
      path_ends_.clear();
      return;
    }
    path_copies_.assign(paths.copies.begin(), paths.copies.end());
    path_ends_.assign(paths.ends.begin(), paths.ends.end());
  }

 private:
  std::vector<ExpandedNetwork::Copy> copies_;  // the recorded network's non-root copies
  std::vector<SeqCutNode> cut_;
  std::vector<SeqCutNode> path_copies_;
  std::vector<std::int32_t> path_ends_;  // empty while no paths are stored
  bool has_cut_ = false;
  Verdict verdict_ = Verdict::kNone;
};

/// Warm-started label computation for a fixed circuit and options.
/// Construction precomputes the SCC condensation and each SCC's sweep order;
/// compute() may then be called for any sequence of target ratios. All
/// probes of one engine share the decomposition cache, and each plain probe
/// warm-starts from the converged labels of the nearest previously feasible
/// phi >= the probe (labels are antitone in phi, so those labels are valid
/// lower bounds that shortcut the iteration); decomposition probes start
/// cold (see compute()). Each gate keeps a GateRecord:
/// its last built network is matched before the next build, and its stored
/// cut and flow paths are re-checked before the next flow.
class LabelEngine {
 public:
  /// `scc`: the circuit's SCCs when the caller already has them (a flow
  /// shares one decomposition of its input); null computes them here.
  /// `network_records` false drops each gate's recorded network after its
  /// update and keeps its certificates: the sweep without network records
  /// the tests compare against.
  LabelEngine(const Circuit& c, const LabelOptions& options,
              std::shared_ptr<const SccDecomposition> scc = nullptr,
              bool network_records = true);

  /// Runs the label computation for target ratio phi (>= 1). For a fixed
  /// engine and phi the result is deterministic.
  LabelResult compute(int phi);

  /// The decomposition memo every probe shares (empty for TurboMap).
  const DecompCache& decomp_cache() const { return cache_; }

  /// Hands the memo over (to mapping generation, whose realizations read
  /// the same structural functions), leaving this engine's empty.
  DecompCache take_decomp_cache() { return std::exchange(cache_, {}); }

 private:
  /// Verdict of one SCC's iteration. kInfeasible is a divergence certificate
  /// only when no resource ceiling interfered (tracked via LabelStats).
  enum class CompOutcome { kConverged, kInfeasible, kBudgetExhausted, kInterrupted };

  CompOutcome process_comp(int comp, int phi, std::vector<int>& labels, LabelStats& stats);

  const Circuit& c_;
  LabelOptions options_;
  DecompCache cache_;
  std::shared_ptr<const SccDecomposition> scc_;
  std::vector<std::vector<NodeId>> gates_;  // per component: updatable gates, sweep order
  CutScratch scratch_;
  std::vector<GateRecord> records_;  // per node; only gates' are used
  bool network_records_ = true;
  std::int64_t num_gates_ = 0;            // c_.num_gates(), counted once
  std::map<int, std::vector<int>> warm_;  // feasible phi -> converged labels
};

/// Runs the label computation for target ratio phi (>= 1). One-shot
/// convenience wrapper over LabelEngine.
LabelResult compute_labels(const Circuit& c, int phi, const LabelOptions& options);

/// Single label update for node v given current lower bounds (exposed for
/// tests). Returns the new label (never below labels[v]); does not modify
/// `labels`. `cache` (optional) keeps (gate, cut) functions across calls;
/// `scratch` (optional) reuses cut-test buffers across calls;
/// `record` (optional) is v's GateRecord: its network is matched before the
/// build, its cut and then its paths are checked before the flow, and the
/// update leaves in it the network it built with its verdict and the cut or
/// paths the flow found. The result does not depend on it.
int label_update(const Circuit& c, std::span<const int> labels, int phi, NodeId v,
                 const LabelOptions& options, LabelStats& stats, DecompCache* cache = nullptr,
                 CutScratch* scratch = nullptr, GateRecord* record = nullptr);

/// The realization the label computation justifies for a node at its final
/// label: either a plain K-cut of E_v, or a decomposition over a wide cut.
struct NodeRealization {
  std::vector<SeqCutNode> cut;
  TruthTable func;                     // LUT function over `cut` (plain cuts)
  std::optional<DecompResult> decomp;  // present iff resynthesis is required;
                                       // its DecompFanin::input indices refer
                                       // to `cut` positions
};

/// Recomputes a realization for node v at height limit `height` (typically
/// the final label, or a relaxed height). Returns nullopt if none exists at
/// that height; at converged labels one always exists at the node's label.
/// `cache` (optional) keeps (gate, cut) functions across calls.
/// `shared` (optional): predicate marking signals already used as LUT inputs
/// elsewhere; when given, plain cuts are chosen by the paper's low-cost
/// K-cut rule (minimum size, then maximum sharing).
std::optional<NodeRealization> realize_node(
    const Circuit& c, std::span<const int> labels, int phi, NodeId v, int height,
    const LabelOptions& options, LabelStats& stats, DecompCache* cache = nullptr,
    const std::function<bool(const SeqCutNode&)>* shared = nullptr,
    CutScratch* scratch = nullptr);

}  // namespace turbosyn
