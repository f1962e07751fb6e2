#include "core/mapgen.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "base/check.hpp"

namespace turbosyn {
namespace {

struct Chosen {
  NodeRealization real;
  int height = 0;                // realized height (label, or relaxed above it)
  std::vector<int> input_depth;  // LUT levels from cut input i to the output
};

/// LUT levels from each cut input to the realized node's output.
std::vector<int> compute_input_depths(const NodeRealization& real) {
  std::vector<int> depth(real.cut.size(), 1);
  if (!real.decomp.has_value()) return depth;
  const auto& luts = real.decomp->luts;
  // dist[j] = levels from LUT j's output to the root's output (root = last).
  std::vector<int> dist(luts.size(), 0);
  for (std::size_t j = luts.size(); j-- > 0;) {
    for (const DecompFanin& fin : luts[j].fanins) {
      if (fin.kind == DecompFanin::Kind::kLut) {
        auto& d = dist[static_cast<std::size_t>(fin.index)];
        d = std::max(d, dist[j] + 1);
      }
    }
  }
  std::fill(depth.begin(), depth.end(), 0);
  for (std::size_t j = 0; j < luts.size(); ++j) {
    for (const DecompFanin& fin : luts[j].fanins) {
      if (fin.kind == DecompFanin::Kind::kInput) {
        auto& d = depth[static_cast<std::size_t>(fin.index)];
        d = std::max(d, dist[j] + 1);
      }
    }
  }
  return depth;
}

class Generator {
 public:
  Generator(const Circuit& c, const LabelResult& labels, int phi,
            const LabelOptions& label_options, const MapGenOptions& options, LabelStats& stats,
            std::vector<MappingRecord>* records, DecompCache* cache)
      : c_(c),
        labels_(labels),
        phi_(phi),
        lopts_(label_options),
        opts_(options),
        stats_(stats),
        cache_(cache != nullptr ? *cache : local_cache_),
        records_(records) {}

  Circuit run() {
    // Pass 1: realize every transitively needed node at its final label.
    for (const NodeId po : c_.pos()) {
      request(c_.edge(c_.fanin_edges(po)[0]).from);
    }
    drain_queue();

    if (opts_.label_relaxation) relax();

    return emit();
  }

 private:
  bool is_mappable(NodeId v) const { return c_.is_gate(v) && !c_.fanin_edges(v).empty(); }

  void request(NodeId v) {
    if (!is_mappable(v)) return;  // PIs and constants need no realization
    if (chosen_.count(v) || pending_.count(v)) return;
    pending_.insert(v);
    queue_.push_back(v);
  }

  void drain_queue() {
    while (!queue_.empty()) {
      const NodeId v = queue_.front();
      queue_.pop_front();
      pending_.erase(v);
      if (chosen_.count(v)) continue;
      BaseReal base = base_realization(v);
      install(v, std::move(base.real), base.height);
    }
  }

  struct BaseReal {
    NodeRealization real;
    int height = 0;
  };

  BaseReal base_realization(NodeId v) {
    const std::function<bool(const SeqCutNode&)> shared = [this](const SeqCutNode& n) {
      return used_inputs_.count((static_cast<std::uint64_t>(
                                     static_cast<std::uint32_t>(n.node))
                                 << 24) |
                                static_cast<std::uint32_t>(n.w)) != 0;
    };
    const int height = labels_.labels[static_cast<std::size_t>(v)];
    auto real = realize_node(c_, labels_.labels, phi_, v, height, lopts_, stats_, &cache_,
                             opts_.low_cost_cuts ? &shared : nullptr, &scratch_);
    TS_CHECK(real.has_value(), "converged labels must be realizable at node '" << c_.name(v)
                                                                               << "'");
    return BaseReal{std::move(*real), height};
  }

  void install(NodeId v, NodeRealization real, int height) {
    Chosen ch;
    ch.input_depth = compute_input_depths(real);
    ch.real = std::move(real);
    ch.height = height;
    for (const SeqCutNode& in : ch.real.cut) {
      request(in.node);
      used_inputs_.insert(
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(in.node)) << 24) |
          static_cast<std::uint32_t>(in.w));
    }
    chosen_[v] = std::move(ch);
  }

  /// Heights the consumers allow: A(x) = min over uses (x, w) at depth d in a
  /// consumer realized at height H of (H - d + phi*w). POs contribute only
  /// under a clock-period limit.
  std::unordered_map<NodeId, int> allowed_heights() const {
    std::unordered_map<NodeId, int> allowed;
    const auto tighten = [&](NodeId x, int bound) {
      const auto [it, inserted] = allowed.emplace(x, bound);
      if (!inserted) it->second = std::min(it->second, bound);
    };
    for (const auto& [v, ch] : chosen_) {
      (void)v;
      for (std::size_t i = 0; i < ch.real.cut.size(); ++i) {
        const SeqCutNode& in = ch.real.cut[i];
        if (!is_mappable(in.node)) continue;
        tighten(in.node, ch.height - ch.input_depth[i] + phi_ * in.w);
      }
    }
    if (opts_.po_label_limit.has_value()) {
      for (const NodeId po : c_.pos()) {
        const auto& e = c_.edge(c_.fanin_edges(po)[0]);
        if (is_mappable(e.from)) {
          tighten(e.from, *opts_.po_label_limit + phi_ * e.weight);
        }
      }
    }
    return allowed;
  }

  void relax() {
    // Swap decomposition DAGs for single plain K-cuts where the consumers
    // leave enough headroom, then fix up any constraint the new uses broke.
    LabelOptions plain = lopts_;
    plain.enable_decomposition = false;
    std::vector<NodeId> targets;
    for (const auto& [v, ch] : chosen_) {
      if (ch.real.decomp.has_value()) targets.push_back(v);
    }
    std::sort(targets.begin(), targets.end());
    {
      const auto allowed = allowed_heights();
      for (const NodeId v : targets) {
        const auto it = allowed.find(v);
        if (it == allowed.end()) continue;  // only POs use it (no cut uses)
        const int a = it->second;
        if (a <= chosen_.at(v).height) continue;
        if (auto real = realize_node(c_, labels_.labels, phi_, v, a, plain, stats_, &cache_,
                                     nullptr, &scratch_)) {
          install(v, std::move(*real), a);
        }
      }
      drain_queue();
    }
    // Verification fixpoint: revert any node whose (possibly relaxed) height
    // now exceeds what its final consumers allow.
    for (int round = 0; round < 8; ++round) {
      const auto allowed = allowed_heights();
      bool reverted = false;
      for (auto& [v, ch] : chosen_) {
        const auto it = allowed.find(v);
        const int a = it == allowed.end() ? std::numeric_limits<int>::max() : it->second;
        if (ch.height > a) {
          BaseReal base = base_realization(v);
          install(v, std::move(base.real), base.height);
          reverted = true;
        }
      }
      drain_queue();
      if (!reverted) return;
    }
    // Safety net: give up on relaxation entirely.
    std::vector<NodeId> all;
    for (const auto& [v, ch] : chosen_) {
      (void)ch;
      all.push_back(v);
    }
    for (const NodeId v : all) {
      BaseReal base = base_realization(v);
      install(v, std::move(base.real), base.height);
    }
    drain_queue();
  }

  Circuit emit() {
    // Prune to the closure actually reachable from the POs (relaxation may
    // have orphaned nodes), then declare + finish.
    std::unordered_set<NodeId> live;
    std::deque<NodeId> bfs;
    for (const NodeId po : c_.pos()) {
      const NodeId d = c_.edge(c_.fanin_edges(po)[0]).from;
      if (live.insert(d).second) bfs.push_back(d);
    }
    while (!bfs.empty()) {
      const NodeId v = bfs.front();
      bfs.pop_front();
      if (!is_mappable(v)) continue;
      for (const SeqCutNode& in : chosen_.at(v).real.cut) {
        if (live.insert(in.node).second) bfs.push_back(in.node);
      }
    }

    if (records_ != nullptr) {
      records_->clear();
      for (NodeId v = 0; v < c_.num_nodes(); ++v) {
        if (!live.count(v) || !is_mappable(v)) continue;
        const Chosen& ch = chosen_.at(v);
        records_->push_back(MappingRecord{v, ch.height, ch.real});
      }
    }

    Circuit out;
    std::unordered_map<NodeId, NodeId> to_out;
    for (const NodeId pi : c_.pis()) to_out[pi] = out.add_pi(c_.name(pi));
    for (NodeId v = 0; v < c_.num_nodes(); ++v) {
      if (!live.count(v)) continue;
      if (c_.is_gate(v) && !is_mappable(v)) {
        // Constant: emit directly.
        to_out[v] = out.add_gate(c_.name(v), c_.function(v), {});
      } else if (is_mappable(v)) {
        to_out[v] = out.declare_gate(c_.name(v));
      }
    }
    int fresh = 0;
    for (NodeId v = 0; v < c_.num_nodes(); ++v) {
      if (!live.count(v) || !is_mappable(v)) continue;
      const Chosen& ch = chosen_.at(v);
      std::vector<Circuit::FaninSpec> inputs;
      for (const SeqCutNode& in : ch.real.cut) {
        inputs.push_back({to_out.at(in.node), in.w});
      }
      if (!ch.real.decomp.has_value()) {
        out.finish_gate(to_out.at(v), ch.real.func, inputs);
        continue;
      }
      const auto& luts = ch.real.decomp->luts;
      std::vector<NodeId> lut_node(luts.size(), kNoNode);
      for (std::size_t j = 0; j < luts.size(); ++j) {
        std::vector<Circuit::FaninSpec> fanins;
        for (const DecompFanin& fin : luts[j].fanins) {
          if (fin.kind == DecompFanin::Kind::kInput) {
            fanins.push_back(inputs[static_cast<std::size_t>(fin.index)]);
          } else {
            fanins.push_back({lut_node[static_cast<std::size_t>(fin.index)], 0});
          }
        }
        if (j + 1 == luts.size()) {
          out.finish_gate(to_out.at(v), luts[j].func, fanins);
          lut_node[j] = to_out.at(v);
        } else {
          lut_node[j] = out.add_gate(c_.name(v) + "$e" + std::to_string(fresh++),
                                     luts[j].func, fanins);
        }
      }
    }
    for (const NodeId po : c_.pos()) {
      const auto& e = c_.edge(c_.fanin_edges(po)[0]);
      out.add_po(c_.name(po), {to_out.at(e.from), e.weight});
    }
    out.validate();
    return out;
  }

  const Circuit& c_;
  const LabelResult& labels_;
  int phi_;
  const LabelOptions& lopts_;
  const MapGenOptions& opts_;
  LabelStats& stats_;

  CutScratch scratch_;       // reused cut-test buffers across realizations
  DecompCache local_cache_;  // the memo when the caller passes none
  DecompCache& cache_;       // (gate, cut) functions across realizations

  std::unordered_map<NodeId, Chosen> chosen_;
  std::unordered_set<NodeId> pending_;
  std::unordered_set<std::uint64_t> used_inputs_;  // packed (node, w) signals
  std::deque<NodeId> queue_;
  std::vector<MappingRecord>* records_;  // optional audit artifacts
};

}  // namespace

Circuit generate_sequential_mapping(const Circuit& c, const LabelResult& labels, int phi,
                                    const LabelOptions& label_options,
                                    const MapGenOptions& options, LabelStats& stats,
                                    std::vector<MappingRecord>* records, DecompCache* cache) {
  TS_CHECK(labels.feasible, "mapping generation requires converged labels");
  return Generator(c, labels, phi, label_options, options, stats, records, cache).run();
}

}  // namespace turbosyn
