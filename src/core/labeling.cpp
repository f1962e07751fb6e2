#include "core/labeling.hpp"

#include <algorithm>
#include <limits>

#include "base/check.hpp"

namespace turbosyn {
namespace {

/// L(v) = max over fanin edges of l(u) - phi*w(e).
std::int64_t fanin_bound(const Circuit& c, std::span<const int> labels, int phi, NodeId v) {
  const CsrTopology& topo = c.topology();
  std::int64_t best = std::numeric_limits<std::int64_t>::min();
  const std::int32_t begin = topo.fanin_offset[static_cast<std::size_t>(v)];
  const std::int32_t end = topo.fanin_offset[static_cast<std::size_t>(v) + 1];
  for (std::int32_t s = begin; s < end; ++s) {
    best = std::max(
        best,
        static_cast<std::int64_t>(
            labels[static_cast<std::size_t>(topo.fanin_src[static_cast<std::size_t>(s)])]) -
            static_cast<std::int64_t>(phi) * topo.fanin_weight[static_cast<std::size_t>(s)]);
  }
  return best;
}

/// Records v as degraded (fell back to its plain K-cut label under a
/// resource ceiling). Consecutive duplicates are skipped; full deduping
/// happens when the run's diagnostics are assembled.
void record_degraded(LabelStats& stats, NodeId v) {
  if (stats.degraded_nodes.empty() || stats.degraded_nodes.back() != v) {
    stats.degraded_nodes.push_back(v);
  }
}

/// Tries resynthesis at min-cut heights `height`, height-1, ... Returns the
/// realization on success. `net` must hold E_v at `height` (the caller's
/// K-cut test network), so the first height needs no rebuild and its Cmax
/// cut starts from the unit flow the K-cut test left (or from the stored
/// paths that refuted it) instead of from zero. Each (gate,
/// cut) function is extracted once per memo; a null `cache` stands for a
/// memo local to this call. With `metered` (the label iteration) every
/// attempt counts against the decomposition-attempt budget.
std::optional<NodeRealization> try_decomposition(const Circuit& c, std::span<const int> labels,
                                                 int phi, NodeId v, int height,
                                                 const LabelOptions& options, LabelStats& stats,
                                                 DecompCache* cache, ExpandedNetwork& net,
                                                 bool metered = false) {
  std::optional<DecompCache> local;
  DecompCache& memo = cache != nullptr ? *cache : local.emplace();
  bool degraded = false;
  for (int h = 0; h < options.height_span; ++h) {
    if (h > 0) net.build(c, labels, phi, v, height - h, options.expansion);
    const auto cut = net.find_cut(options.cmax);
    stats.flow_augmentations += net.augmentations();
    if (!cut) break;  // stricter heights only widen the min-cut further
    // The attempt ceiling meters the label iteration only. Mapping generation
    // re-derives the realizations that justified the converged labels; were
    // it metered too, a ceiling spent by the search would leave it unable to
    // rebuild them, and the mapping would miss the phi the search proved.
    if (metered && !options.budget.try_consume_decomp_attempt()) {
      ++stats.decomp_budget_hits;
      degraded = true;
      break;  // the ceiling is per-run: further heights would be refused too
    }
    ++stats.decomp_attempts;
    std::vector<int> eff(cut->size());
    for (std::size_t i = 0; i < cut->size(); ++i) {
      eff[i] = labels[static_cast<std::size_t>((*cut)[i].node)] - phi * (*cut)[i].w;
    }
    auto [it, fresh] = memo.entries.try_emplace({v, *cut});
    if (fresh) {
      ++stats.cut_functions;
      it->second = restrict_to_support(net.cut_function(*cut));
    }
    DecompResult d = decompose_on_support(it->second.func, it->second.support, eff, height,
                                          DecompOptions{.k = options.k});
    if (d.success) {
      ++stats.decomp_successes;
      NodeRealization r;
      r.cut = *cut;
      r.decomp = std::move(d);
      return r;
    }
  }
  if (degraded) record_degraded(stats, v);
  return std::nullopt;
}

/// The K-cut test on `net`, E_v at its height: settled by the record's
/// stored cut when it still separates the network, by its stored flow
/// paths when they are still a flow above K, else by the flow, whose cut or
/// paths the record then stores. True iff a K-cut exists.
bool k_cut_test(ExpandedNetwork& net, const LabelOptions& options, LabelStats& stats,
                GateRecord* record) {
  if (record != nullptr) {
    if (const auto last = record->cut(); last && net.separates(*last)) {
      ++stats.cut_reuses;
      return true;
    }
    // The stored paths still valid in this build seed its next flow: the
    // K-cut test when fewer than K + 1 remain, else the Cmax cut after it.
    if (const auto paths = record->paths(); paths && net.refuted_by(*paths, options.k)) {
      ++stats.cut_refutations;  // the flow would fail
      return false;
    }
  }
  ++stats.cut_tests;
  const auto cut = net.find_cut(options.k);
  stats.flow_augmentations += net.augmentations();
  if (record != nullptr) {
    if (cut) {
      record->keep_cut(*cut);
    } else {
      record->keep_paths(net.flow_paths(), options.k);
    }
  }
  return cut.has_value();
}

}  // namespace

std::optional<NodeRealization> realize_node(const Circuit& c, std::span<const int> labels,
                                            int phi, NodeId v, int height,
                                            const LabelOptions& options, LabelStats& stats,
                                            DecompCache* cache,
                                            const std::function<bool(const SeqCutNode&)>* shared,
                                            CutScratch* scratch) {
  std::optional<CutScratch> local;
  ExpandedNetwork& net = (scratch != nullptr ? *scratch : local.emplace()).net;
  net.build(c, labels, phi, v, height, options.expansion);
  ++stats.cut_tests;
  auto found = shared != nullptr ? net.find_low_cost_cut(options.k, *shared)
                                 : net.find_cut(options.k);
  stats.flow_augmentations += net.augmentations();
  if (auto& cut = found) {
    NodeRealization r;
    r.func = net.cut_function(*cut);
    r.cut = std::move(*cut);
    return r;
  }
  if (options.enable_decomposition) {
    return try_decomposition(c, labels, phi, v, height, options, stats, cache, net);
  }
  return std::nullopt;
}

int label_update(const Circuit& c, std::span<const int> labels, int phi, NodeId v,
                 const LabelOptions& options, LabelStats& stats, DecompCache* cache,
                 CutScratch* scratch, GateRecord* record) {
  using Verdict = GateRecord::Verdict;
  ++stats.node_updates;
  const std::int64_t big_l = fanin_bound(c, labels, phi, v);
  const int current = labels[static_cast<std::size_t>(v)];
  TS_ASSERT(big_l < std::numeric_limits<int>::max());
  const int target = static_cast<int>(big_l);
  if (current >= target + 1) return current;  // cannot improve past L(v)+1

  // v's last network again: its verdict stands. A failed test still needs
  // the network for decomposition, so that mode trusts only a found cut.
  if (record != nullptr) {
    const Verdict last = record->verdict();
    const bool trusted =
        last == Verdict::kCut || (last == Verdict::kNoCut && !options.enable_decomposition);
    if (trusted && record->matches(labels, phi, target)) {
      ++stats.network_reuses;
      return std::max(current, last == Verdict::kCut ? target : target + 1);
    }
  }

  // Existence-only variant of realize_node: skip LUT function extraction
  // (mapping generation recomputes it once, at the final labels).
  std::optional<CutScratch> local;
  ExpandedNetwork& net = (scratch != nullptr ? *scratch : local.emplace()).net;
  net.build(c, labels, phi, v, target, options.expansion);
  const bool found = k_cut_test(net, options, stats, record);
  // Recorded before decomposition rebuilds the network at other heights.
  if (record != nullptr) record->keep_network(net, found);
  if (found) return std::max(current, target);
  if (options.enable_decomposition &&
      try_decomposition(c, labels, phi, v, target, options, stats, cache, net,
                        /*metered=*/true)
          .has_value()) {
    return std::max(current, target);
  }
  return std::max(current, target + 1);
}

namespace {

/// PLD: true iff the SCC is totally isolated from its support in the
/// predecessor graph — no node of the SCC is backed (transitively) by a node
/// with l <= 1 or by a predecessor outside the SCC. Runs on the CSR topology
/// with epoch-stamped scratch buffers: no allocation in steady state.
bool scc_isolated(const CsrTopology& topo, std::span<const int> labels, int phi,
                  std::span<const NodeId> scc, std::span<const int> component_of,
                  int comp_index, CutScratch& scratch) {
  if (scratch.iso_mark.size() < labels.size()) scratch.iso_mark.resize(labels.size(), 0);
  if (++scratch.iso_epoch == 0) {  // wrapped: stamps from 2^32 calls ago are stale
    scratch.iso_epoch = 1;
    std::fill(scratch.iso_mark.begin(), scratch.iso_mark.end(), 0);
  }
  const std::uint32_t epoch = scratch.iso_epoch;
  std::vector<NodeId>& queue = scratch.iso_queue;
  queue.clear();
  // Seeds: nodes with base-case labels or an external predecessor.
  for (const NodeId v : scc) {
    const int lv = labels[static_cast<std::size_t>(v)];
    if (lv <= 1) {
      scratch.iso_mark[static_cast<std::size_t>(v)] = epoch;
      queue.push_back(v);
      continue;
    }
    const std::int32_t begin = topo.fanin_offset[static_cast<std::size_t>(v)];
    const std::int32_t end = topo.fanin_offset[static_cast<std::size_t>(v) + 1];
    for (std::int32_t s = begin; s < end; ++s) {
      const NodeId u = topo.fanin_src[static_cast<std::size_t>(s)];
      const std::int64_t support =
          static_cast<std::int64_t>(labels[static_cast<std::size_t>(u)]) -
          static_cast<std::int64_t>(phi) * topo.fanin_weight[static_cast<std::size_t>(s)] + 1;
      if (support >= lv && component_of[static_cast<std::size_t>(u)] != comp_index) {
        scratch.iso_mark[static_cast<std::size_t>(v)] = epoch;
        queue.push_back(v);
        break;
      }
    }
  }
  if (queue.empty()) return true;

  // Propagate grounding along predecessor edges inside the SCC.
  std::size_t grounded_count = queue.size();
  for (std::size_t head = 0; head < queue.size() && grounded_count < scc.size(); ++head) {
    const NodeId u = queue[head];
    const std::int32_t begin = topo.fanout_offset[static_cast<std::size_t>(u)];
    const std::int32_t end = topo.fanout_offset[static_cast<std::size_t>(u) + 1];
    for (std::int32_t s = begin; s < end; ++s) {
      const NodeId v = topo.fanout_dst[static_cast<std::size_t>(s)];
      if (component_of[static_cast<std::size_t>(v)] != comp_index ||
          scratch.iso_mark[static_cast<std::size_t>(v)] == epoch) {
        continue;
      }
      const int lv = labels[static_cast<std::size_t>(v)];
      if (lv <= 1) continue;  // already a seed
      const std::int64_t support =
          static_cast<std::int64_t>(labels[static_cast<std::size_t>(u)]) -
          static_cast<std::int64_t>(phi) * topo.fanout_weight[static_cast<std::size_t>(s)] + 1;
      if (support >= lv) {
        scratch.iso_mark[static_cast<std::size_t>(v)] = epoch;
        ++grounded_count;
        queue.push_back(v);
      }
    }
  }
  // Isolated iff nothing is grounded; partial grounding means keep iterating.
  return grounded_count == 0;
}

}  // namespace

LabelEngine::LabelEngine(const Circuit& c, const LabelOptions& options,
                         std::shared_ptr<const SccDecomposition> scc, bool network_records)
    : c_(c),
      options_(options),
      scc_(std::move(scc)),
      records_(static_cast<std::size_t>(c.num_nodes())),
      network_records_(network_records),
      num_gates_(c.num_gates()) {
  TS_CHECK(c.is_k_bounded(options.k), "label computation requires a k-bounded circuit");
  const std::size_t n = static_cast<std::size_t>(c.num_nodes());

  if (scc_ == nullptr) {
    scc_ = std::make_shared<const SccDecomposition>(strongly_connected_components(c));
  }

  // Sweep order: zero-weight topological position. Updates then propagate
  // through a whole combinational stretch in a single sweep, so each sweep
  // advances label information by one register lap around a loop.
  std::vector<int> topo_pos(n, 0);
  const std::vector<NodeId> order = combinational_order(c);
  for (std::size_t i = 0; i < order.size(); ++i) {
    topo_pos[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  gates_.resize(scc_->components.size());
  for (std::size_t comp = 0; comp < scc_->components.size(); ++comp) {
    std::vector<NodeId>& gates = gates_[comp];
    for (const NodeId v : scc_->components[comp]) {
      if (c.is_gate(v) && !c.fanin_edges(v).empty()) gates.push_back(v);
    }
    std::sort(gates.begin(), gates.end(), [&](NodeId a, NodeId b) {
      return topo_pos[static_cast<std::size_t>(a)] < topo_pos[static_cast<std::size_t>(b)];
    });
  }
}

void LabelStats::accumulate(const LabelStats& from) {
  sweeps += from.sweeps;
  node_updates += from.node_updates;
  infeasible_scc_updates += from.infeasible_scc_updates;
  cut_tests += from.cut_tests;
  cut_reuses += from.cut_reuses;
  cut_refutations += from.cut_refutations;
  network_reuses += from.network_reuses;
  decomp_attempts += from.decomp_attempts;
  decomp_successes += from.decomp_successes;
  cut_functions += from.cut_functions;
  flow_augmentations += from.flow_augmentations;
  decomp_budget_hits += from.decomp_budget_hits;
  degraded_nodes.insert(degraded_nodes.end(), from.degraded_nodes.begin(),
                        from.degraded_nodes.end());
}

LabelEngine::CompOutcome LabelEngine::process_comp(int comp, int phi, std::vector<int>& labels,
                                                   LabelStats& stats) {
  const std::vector<NodeId>& gates = gates_[static_cast<std::size_t>(comp)];
  // PLD: the theorem's 6n bound with n = SCC size. Without PLD: the prior
  // criterion of n^2 iterations with n = circuit size (paper Section 4).
  const std::int64_t n = static_cast<std::int64_t>(gates.size());
  const std::int64_t total = std::max<std::int64_t>(2, num_gates_);
  const std::int64_t criterion_cap = options_.use_pld ? 6 * n + 2 : total * total;
  const std::int64_t sweep_budget = options_.sweep_budget;
  const bool budget_binds = sweep_budget > 0 && sweep_budget < criterion_cap;
  const std::int64_t cap = budget_binds ? sweep_budget : criterion_cap;

  bool isolated_last_sweep = false;
  for (std::int64_t sweep = 0;; ++sweep) {
    ++stats.sweeps;
    bool changed = false;
    for (const NodeId v : gates) {
      if (options_.budget.interrupted()) return CompOutcome::kInterrupted;
      GateRecord& record = records_[static_cast<std::size_t>(v)];
      const int updated =
          label_update(c_, labels, phi, v, options_, stats, &cache_, &scratch_, &record);
      if (!network_records_) record.forget_network();
      if (updated > labels[static_cast<std::size_t>(v)]) {
        labels[static_cast<std::size_t>(v)] = updated;
        changed = true;
      }
    }
    if (!changed) return CompOutcome::kConverged;  // SCC converged
    if (options_.use_pld) {
      // Any feasible fixpoint satisfies l(v) <= sum of delays <= #gates
      // (labels are maxima of path delay minus phi*registers), so a label
      // beyond that certifies divergence regardless of the iteration cap.
      // Kept inside the PLD package so the no-PLD mode stays a faithful
      // n^2-criterion baseline for the ablation benchmark.
      for (const NodeId v : gates) {
        if (labels[static_cast<std::size_t>(v)] > num_gates_ + 1) {
          return CompOutcome::kInfeasible;
        }
      }
      // Early exit: the SCC keeps changing while totally isolated from its
      // support in the predecessor graph on two consecutive sweeps. (A
      // single isolated snapshot can be the just-reached fixpoint, so one
      // more changing sweep is required to certify divergence; the 6n cap
      // below is the theorem's unconditional guarantee.) The theorem's
      // premise — an ungrounded, still-changing SCC must rise forever —
      // holds for the plain K-cut update only: resynthesis can absorb a
      // rising support later (try_decomposition succeeds where the cut test
      // failed), so a feasible TurboSYN SCC may look isolated transiently
      // (observed on bbsse at phi=2). With decomposition the 6n cap decides.
      if (!options_.enable_decomposition) {
        const bool isolated = scc_isolated(c_.topology(), labels, phi,
                                           scc_->components[static_cast<std::size_t>(comp)],
                                           scc_->component_of, comp, scratch_);
        if (isolated && isolated_last_sweep) return CompOutcome::kInfeasible;  // positive loop
        isolated_last_sweep = isolated;
      }
    }
    if (sweep + 1 >= cap) {
      // Distinguish "the criterion proved divergence" from "the caller's
      // sweep budget cut the iteration short" — only the former certifies
      // infeasibility.
      return budget_binds ? CompOutcome::kBudgetExhausted : CompOutcome::kInfeasible;
    }
  }
}

LabelResult LabelEngine::compute(int phi) {
  TS_CHECK(phi >= 1, "target ratio must be >= 1");

  LabelResult result;
  // Stamps result.status before any exit: the outcome of the deciding
  // component, plus kDegraded whenever a resource ceiling interfered
  // anywhere (which also demotes an infeasible verdict from certificate to
  // budget-imposed — see LabelResult::status).
  const auto finish = [&](CompOutcome out) {
    if (out == CompOutcome::kInterrupted) {
      const Status s = options_.budget.check();
      result.status = combine_status(result.status, s == Status::kOk ? Status::kCancelled : s);
    } else if (out == CompOutcome::kBudgetExhausted) {
      result.status = combine_status(result.status, Status::kDegraded);
    }
    if (result.stats.decomp_budget_hits > 0) {
      result.status = combine_status(result.status, Status::kDegraded);
    }
  };
  // Warm start: labels are antitone in phi, so the converged labels of the
  // nearest previously feasible phi' >= phi are valid lower bounds for this
  // probe and the monotone iteration reaches the same least fixpoint. That
  // argument needs a monotone update, which only the plain K-cut update is:
  // with decomposition, raising one label can turn a neighbouring node's
  // resynthesis from success into failure, so the iteration is trajectory
  // sensitive and can settle on a different (still valid) fixpoint than a
  // cold start would. Different fixpoints pick different cuts, and mapped
  // results must be reproducible run to run — so decomposition probes always
  // start cold. They still share the decomposition memo: a (gate, cut)
  // function is structural, independent of phi and of the label trajectory.
  const bool warm_ok = !options_.enable_decomposition;
  if (const auto it = warm_.lower_bound(phi); warm_ok && it != warm_.end()) {
    result.labels = it->second;
  } else {
    result.labels.assign(static_cast<std::size_t>(c_.num_nodes()), 0);
    for (NodeId v = 0; v < c_.num_nodes(); ++v) {
      if (c_.is_gate(v) && !c_.fanin_edges(v).empty()) {
        result.labels[static_cast<std::size_t>(v)] = 1;
      }
    }
  }

  for (int comp = 0; comp < static_cast<int>(gates_.size()); ++comp) {
    if (gates_[static_cast<std::size_t>(comp)].empty()) continue;
    const std::int64_t updates_before = result.stats.node_updates;
    const CompOutcome out = process_comp(comp, phi, result.labels, result.stats);
    if (out == CompOutcome::kInfeasible) {
      result.stats.infeasible_scc_updates += result.stats.node_updates - updates_before;
    }
    if (out != CompOutcome::kConverged) {
      finish(out);
      return result;
    }
  }

  // All SCCs converged: feasible. POs get L(po) for the clock-period check.
  result.feasible = true;
  for (const NodeId po : c_.pos()) {
    const std::int64_t l = fanin_bound(c_, result.labels, phi, po);
    result.labels[static_cast<std::size_t>(po)] = static_cast<int>(std::max<std::int64_t>(0, l));
    result.max_po_label =
        std::max(result.max_po_label, result.labels[static_cast<std::size_t>(po)]);
  }
  finish(CompOutcome::kConverged);
  // Degraded labels are valid for this probe but not proven least-fixpoint
  // lower bounds, so only clean probes seed future warm starts.
  if (warm_ok && result.status == Status::kOk) warm_[phi] = result.labels;
  return result;
}

LabelResult compute_labels(const Circuit& c, int phi, const LabelOptions& options) {
  LabelEngine engine(c, options);
  return engine.compute(phi);
}

}  // namespace turbosyn
