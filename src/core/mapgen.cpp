#include "core/mapgen.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <optional>
#include <utility>

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
        chosen_(static_cast<std::size_t>(c.num_nodes())),
        pending_(static_cast<std::size_t>(c.num_nodes()), 0),
        used_w_(static_cast<std::size_t>(c.num_nodes())),
        records_(records) {}

  LutNetwork run() {
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
  bool chosen(NodeId v) const { return chosen_[static_cast<std::size_t>(v)].has_value(); }
  Chosen& at(NodeId v) { return *chosen_[static_cast<std::size_t>(v)]; }

  void request(NodeId v) {
    if (!is_mappable(v)) return;  // PIs and constants need no realization
    if (chosen(v) || pending_[static_cast<std::size_t>(v)]) return;
    pending_[static_cast<std::size_t>(v)] = 1;
    queue_.push_back(v);
  }

  void drain_queue() {
    while (!queue_.empty()) {
      const NodeId v = queue_.front();
      queue_.pop_front();
      pending_[static_cast<std::size_t>(v)] = 0;
      if (!chosen(v)) install_base(v);
    }
  }

  /// Realizes v at its own label and installs it.
  void install_base(NodeId v) {
    const std::function<bool(const SeqCutNode&)> shared = [this](const SeqCutNode& n) {
      return std::ranges::count(used_w_[static_cast<std::size_t>(n.node)], n.w) != 0;
    };
    const int height = labels_.labels[static_cast<std::size_t>(v)];
    auto real = realize_node(c_, labels_.labels, phi_, v, height, lopts_, stats_, &cache_,
                             opts_.low_cost_cuts ? &shared : nullptr, &scratch_);
    TS_CHECK(real.has_value(), "converged labels must be realizable at node '" << c_.name(v)
                                                                               << "'");
    install(v, std::move(*real), height);
  }

  void install(NodeId v, NodeRealization real, int height) {
    for (const SeqCutNode& in : real.cut) {
      request(in.node);
      auto& used = used_w_[static_cast<std::size_t>(in.node)];
      if (std::ranges::count(used, in.w) == 0) used.push_back(in.w);
    }
    std::vector<int> depth = compute_input_depths(real);
    chosen_[static_cast<std::size_t>(v)] = Chosen{std::move(real), height, std::move(depth)};
  }

  /// Heights the consumers allow: A(x) = min over uses (x, w) at depth d in a
  /// consumer realized at height H of (H - d + phi*w), per node; INT_MAX
  /// where nothing constrains x. POs contribute only under a clock-period
  /// limit.
  std::vector<int> allowed_heights() const {
    std::vector<int> allowed(static_cast<std::size_t>(c_.num_nodes()),
                             std::numeric_limits<int>::max());
    const auto tighten = [&](NodeId x, int bound) {
      int& a = allowed[static_cast<std::size_t>(x)];
      a = std::min(a, bound);
    };
    for (const std::optional<Chosen>& ch : chosen_) {
      if (!ch.has_value()) continue;
      for (std::size_t i = 0; i < ch->real.cut.size(); ++i) {
        const SeqCutNode& in = ch->real.cut[i];
        if (!is_mappable(in.node)) continue;
        tighten(in.node, ch->height - ch->input_depth[i] + phi_ * in.w);
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
    for (NodeId v = 0; v < c_.num_nodes(); ++v) {
      if (chosen(v) && at(v).real.decomp.has_value()) targets.push_back(v);
    }
    {
      const auto allowed = allowed_heights();
      for (const NodeId v : targets) {
        // Unconstrained: only POs use it (no cut uses).
        const int a = allowed[static_cast<std::size_t>(v)];
        if (a == std::numeric_limits<int>::max() || a <= at(v).height) continue;
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
      for (NodeId v = 0; v < c_.num_nodes(); ++v) {
        if (chosen(v) && at(v).height > allowed[static_cast<std::size_t>(v)]) {
          install_base(v);
          reverted = true;
        }
      }
      drain_queue();
      if (!reverted) return;
    }
    // Safety net: give up on relaxation entirely.
    for (NodeId v = 0; v < c_.num_nodes(); ++v) {
      if (chosen(v)) install_base(v);
    }
    drain_queue();
  }

  LutNetwork emit() {
    // Prune to the closure actually reachable from the POs (relaxation may
    // have orphaned nodes).
    std::vector<char> live(static_cast<std::size_t>(c_.num_nodes()), 0);
    std::vector<NodeId> stack;
    const auto mark = [&](NodeId v) {
      if (!live[static_cast<std::size_t>(v)]) {
        live[static_cast<std::size_t>(v)] = 1;
        stack.push_back(v);
      }
    };
    for (const NodeId po : c_.pos()) mark(c_.edge(c_.fanin_edges(po)[0]).from);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      if (!is_mappable(v)) continue;
      for (const SeqCutNode& in : at(v).real.cut) mark(in.node);
    }

    // Roots and constants take the live nodes' order; encoder LUTs follow.
    using Fanin = LutNetwork::Fanin;
    LutNetwork net;
    net.source = &c_;
    std::vector<std::int32_t> ref(static_cast<std::size_t>(c_.num_nodes()), 0);
    for (std::size_t i = 0; i < c_.pis().size(); ++i) {
      ref[static_cast<std::size_t>(c_.pis()[i])] = ~static_cast<std::int32_t>(i);
    }
    for (NodeId v = 0; v < c_.num_nodes(); ++v) {
      if (!live[static_cast<std::size_t>(v)] || !c_.is_gate(v)) continue;
      ref[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(net.luts.size());
      net.luts.push_back({is_mappable(v) ? TruthTable() : c_.function(v), {}, v});
    }
    int fresh = 0;
    std::vector<Fanin> inputs;
    for (NodeId v = 0; v < c_.num_nodes(); ++v) {
      if (!live[static_cast<std::size_t>(v)] || !is_mappable(v)) continue;
      const Chosen& ch = at(v);
      inputs.clear();
      for (const SeqCutNode& in : ch.real.cut) {
        inputs.push_back({ref[static_cast<std::size_t>(in.node)], in.w});
      }
      const auto root = static_cast<std::size_t>(ref[static_cast<std::size_t>(v)]);
      if (!ch.real.decomp.has_value()) {
        net.luts[root].func = ch.real.func;
        net.luts[root].fanins = inputs;
        continue;
      }
      // Decomposition LUT j < last becomes LUT `first + j`; the last is v's.
      const auto& luts = ch.real.decomp->luts;
      const auto first = static_cast<std::int32_t>(net.luts.size());
      for (std::size_t j = 0; j < luts.size(); ++j) {
        LutNetwork::Lut lut{luts[j].func, {}, v, fresh};
        for (const DecompFanin& fin : luts[j].fanins) {
          lut.fanins.push_back(fin.kind == DecompFanin::Kind::kInput
                                   ? inputs[static_cast<std::size_t>(fin.index)]
                                   : Fanin{first + fin.index, 0});
        }
        if (j + 1 < luts.size()) {
          ++fresh;
          net.luts.push_back(std::move(lut));
        } else {
          net.luts[root].func = std::move(lut.func);
          net.luts[root].fanins = std::move(lut.fanins);
        }
      }
    }
    for (const NodeId po : c_.pos()) {
      const auto& e = c_.edge(c_.fanin_edges(po)[0]);
      net.pos.push_back({ref[static_cast<std::size_t>(e.from)], e.weight});
    }

    if (records_ != nullptr) {
      records_->clear();
      for (NodeId v = 0; v < c_.num_nodes(); ++v) {
        if (!live[static_cast<std::size_t>(v)] || !is_mappable(v)) continue;
        Chosen& ch = at(v);
        records_->push_back(MappingRecord{v, ch.height, std::move(ch.real)});
      }
    }
    return net;
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

  std::vector<std::optional<Chosen>> chosen_;  // per node: its realization
  std::vector<char> pending_;             // per node: queued
  std::vector<std::vector<int>> used_w_;  // per node: register counts used as LUT inputs
  std::deque<NodeId> queue_;
  std::vector<MappingRecord>* records_;  // optional audit artifacts
};

}  // namespace

LutNetwork generate_sequential_mapping(const Circuit& c, const LabelResult& labels, int phi,
                                       const LabelOptions& label_options,
                                       const MapGenOptions& options, LabelStats& stats,
                                       std::vector<MappingRecord>* records, DecompCache* cache) {
  TS_CHECK(labels.feasible, "mapping generation requires converged labels");
  return Generator(c, labels, phi, label_options, options, stats, records, cache).run();
}

}  // namespace turbosyn
