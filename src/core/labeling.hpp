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
// cache across probes, and warm-starts each probe from the nearest
// previously feasible phi. Each SCC, in topological order, is swept in place
// in zero-weight topological order — the order the 6n PLD bound is proven
// for. Per gate it keeps the certificates of its last K-cut test (the cut,
// or the flow paths of a failure) and a record of the network that test
// ran on; an update whose network would be the same takes the recorded
// verdict without building it, and one whose stored certificate still
// holds skips the flow.

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

/// Each gate's last flow-found K-cut, kept across sweeps and probes. A cut
/// that still separates the gate's expanded network at the new height
/// (ExpandedNetwork::separates) certifies that the K-cut test would
/// succeed, so label_update() runs the flow only when the stored cut fails
/// that check. Flat storage: gate v's cut is nodes[v*k, v*k + size[v]),
/// size[v] = -1 while none is stored.
struct KCutStore {
  KCutStore(int num_nodes, int k)
      : k(k),
        nodes(static_cast<std::size_t>(num_nodes) * static_cast<std::size_t>(k)),
        size(static_cast<std::size_t>(num_nodes), -1) {}

  /// v's stored cut; nullopt while none is stored.
  std::optional<std::span<const SeqCutNode>> get(NodeId v) const {
    const int n = size[static_cast<std::size_t>(v)];
    if (n < 0) return std::nullopt;
    return std::span(nodes).subspan(static_cast<std::size_t>(v) * k, n);
  }
  /// Replaces v's stored cut (at most k nodes).
  void put(NodeId v, std::span<const SeqCutNode> cut) {
    std::copy(cut.begin(), cut.end(), nodes.begin() + static_cast<std::ptrdiff_t>(v) * k);
    size[static_cast<std::size_t>(v)] = static_cast<int>(cut.size());
  }

  int k;
  std::vector<SeqCutNode> nodes;
  std::vector<int> size;
};

/// Each gate's last failed K-cut test, kept across sweeps and probes as the
/// K + 1 unit flow paths the flow pushed (ExpandedNetwork::flow_paths). When
/// they are still a flow in the gate's rebuilt network
/// (ExpandedNetwork::refuted_by), the K-cut test would fail, so
/// label_update() skips the flow. Flat storage: gate v's paths are
/// copies[v*cap(), v*cap() + n) with n = ends[v*(k+1) + k] (0 while none
/// is stored), and path p ends at offset ends[v*(k+1) + p].
struct FlowPathStore {
  /// Copies per path of the store's cap: 12 hold nearly every certificate
  /// (99.99% of those of TurboSYN on the Table-1 shapes; DESIGN.md, "Cut
  /// refutation"). At K = 5 the store takes 576 bytes per node.
  static constexpr int kCopiesPerPath = 12;

  FlowPathStore(int num_nodes, int k)
      : k(k),
        copies(static_cast<std::size_t>(num_nodes) * cap()),
        ends(static_cast<std::size_t>(num_nodes) * static_cast<std::size_t>(k + 1), 0) {}

  /// Copies a gate's certificate may hold; a longer one is not stored.
  std::size_t cap() const { return static_cast<std::size_t>(kCopiesPerPath) * (k + 1); }

  /// v's stored paths; nullopt while none are stored.
  std::optional<FlowPaths> get(NodeId v) const {
    const auto path_ends = std::span(ends).subspan(static_cast<std::size_t>(v) * (k + 1),
                                                   static_cast<std::size_t>(k + 1));
    if (path_ends.back() == 0) return std::nullopt;
    return FlowPaths{std::span(copies).subspan(static_cast<std::size_t>(v) * cap(),
                                               static_cast<std::size_t>(path_ends.back())),
                     path_ends};
  }
  /// Replaces v's stored paths with `paths` when it holds exactly k + 1
  /// paths of at most cap() copies in all; otherwise v keeps none.
  void put(NodeId v, FlowPaths paths) {
    const auto first_end = static_cast<std::ptrdiff_t>(v) * (k + 1);
    if (paths.ends.size() != static_cast<std::size_t>(k + 1) || paths.copies.size() > cap()) {
      ends[static_cast<std::size_t>(first_end + k)] = 0;
      return;
    }
    std::copy(paths.copies.begin(), paths.copies.end(),
              copies.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(v) * cap()));
    std::copy(paths.ends.begin(), paths.ends.end(), ends.begin() + first_end);
  }

  int k;
  std::vector<SeqCutNode> copies;
  std::vector<std::int32_t> ends;
};

/// Each gate's last expanded network (ExpandedNetwork::copies), kept across
/// sweeps and probes: its non-root copies in build order, whether each was
/// allowed, and the K-cut verdict. When every recorded copy keeps its flag
/// under the current labels, phi and height limit, build() would make the
/// recorded network again and the K-cut test would give the recorded
/// verdict, so label_update() builds nothing (DESIGN.md, "Network
/// records"). A record is trusted, not checked: one store serves one
/// circuit, one K and one ExpandedOptions. Each gate's copies sit in a
/// vector of its own, as large as its largest record so far.
struct NetworkRecordStore {
  /// Non-root copies a record may hold; a larger network is not recorded.
  /// 48 hold nearly every reusable build of the Table-1 shapes (DESIGN.md,
  /// "Network records").
  static constexpr std::size_t kCopies = 48;
  enum class Verdict : std::uint8_t { kNone, kCut, kNoCut };
  struct Record {
    std::vector<ExpandedNetwork::Copy> copies;
    Verdict verdict = Verdict::kNone;  // kNone: no record
  };

  explicit NetworkRecordStore(int num_nodes) : records(static_cast<std::size_t>(num_nodes)) {}

  Verdict verdict(NodeId v) const { return records[static_cast<std::size_t>(v)].verdict; }

  /// True iff v has a record and every recorded copy u^w keeps its flag
  /// l(u) - phi*w + 1 <= height.
  bool matches(NodeId v, std::span<const int> labels, int phi, int height) const {
    const Record& record = records[static_cast<std::size_t>(v)];
    if (record.verdict == Verdict::kNone) return false;
    for (const ExpandedNetwork::Copy& copy : record.copies) {
      const std::int64_t eff =
          static_cast<std::int64_t>(labels[static_cast<std::size_t>(copy.id.node)]) -
          static_cast<std::int64_t>(phi) * copy.id.w;
      if ((eff + 1 <= height) != copy.allowed) return false;
    }
    return true;
  }
  /// Records `net`, built for root v, with verdict `found`; kNone, or a
  /// network of more than kCopies non-root copies, leaves v with none.
  void put(NodeId v, const ExpandedNetwork& net, Verdict found) {
    Record& record = records[static_cast<std::size_t>(v)];
    const std::span<const ExpandedNetwork::Copy> built = net.copies().subspan(1);
    record.verdict = built.size() > kCopies ? Verdict::kNone : found;
    if (record.verdict != Verdict::kNone) record.copies.assign(built.begin(), built.end());
  }

  std::vector<Record> records;
};

/// Warm-started label computation for a fixed circuit and options.
/// Construction precomputes the SCC condensation and each SCC's sweep order;
/// compute() may then be called for any sequence of target ratios. All
/// probes of one engine share the decomposition cache, and each probe
/// warm-starts from the converged labels of the nearest previously feasible
/// phi >= the probe (labels are antitone in phi, so those labels are valid
/// lower bounds that shortcut the iteration). Each gate's last flow-found
/// K-cut (KCutStore) and last failed test's flow paths (FlowPathStore) are
/// kept too, and re-checked before the next flow, and so is its last built
/// network (NetworkRecordStore), matched before the next build.
class LabelEngine {
 public:
  /// `scc`: the circuit's SCCs when the caller already has them (a flow
  /// shares one decomposition of its input); null computes them here.
  /// `network_records` false settles every update without a
  /// NetworkRecordStore, the record-free sweep the tests compare against.
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
  KCutStore cuts_;
  FlowPathStore paths_;
  std::optional<NetworkRecordStore> records_;  // empty when records are off
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
/// `cuts` (optional) supplies v's last K-cut, checked before the flow runs,
/// and records the cut the flow finds; `paths` (optional) does the same for
/// the flow paths of v's last failed test. `records` (optional) supplies
/// v's last network, matched before the build, and records this one; a
/// verdict is recorded only when `cuts` or `paths` holds its certificate,
/// so a record settles exactly the updates those stores would settle
/// without a flow. The result depends on none of them.
int label_update(const Circuit& c, std::span<const int> labels, int phi, NodeId v,
                 const LabelOptions& options, LabelStats& stats, DecompCache* cache = nullptr,
                 CutScratch* scratch = nullptr, KCutStore* cuts = nullptr,
                 FlowPathStore* paths = nullptr, NetworkRecordStore* records = nullptr);

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
