#include "mapping/flowmap.hpp"

#include <algorithm>
#include <unordered_map>

#include "base/check.hpp"
#include "mapping/cone_cut.hpp"
#include "sim/cone.hpp"

namespace turbosyn {
namespace {

std::vector<NodeId> trivial_cut(const Circuit& c, NodeId t) {
  std::vector<NodeId> cut;
  for (const EdgeId e : c.fanin_edges(t)) cut.push_back(c.edge(e).from);
  std::sort(cut.begin(), cut.end());
  cut.erase(std::unique(cut.begin(), cut.end()), cut.end());
  return cut;
}

}  // namespace

FlowMapResult flowmap(const Circuit& c, const FlowMapOptions& options) {
  TS_CHECK(c.is_k_bounded(options.k), "flowmap requires a k-bounded circuit");
  for (EdgeId e = 0; e < c.num_edges(); ++e) {
    TS_CHECK(c.edge(e).weight == 0, "flowmap requires a combinational circuit");
  }

  FlowMapResult result;
  result.nodes.assign(static_cast<std::size_t>(c.num_nodes()), NodeMapping{});
  std::vector<int> label(static_cast<std::size_t>(c.num_nodes()), 0);

  for (const NodeId t : combinational_order(c)) {
    NodeMapping& m = result.nodes[static_cast<std::size_t>(t)];
    if (c.is_pi(t)) continue;
    if (c.is_po(t)) {
      m.label = label[static_cast<std::size_t>(c.edge(c.fanin_edges(t)[0]).from)];
      label[static_cast<std::size_t>(t)] = m.label;
      result.depth = std::max(result.depth, m.label);
      continue;
    }
    if (c.fanin_edges(t).empty()) {  // constant: free, like a PI
      m.label = 0;
      m.cut = {};
      continue;
    }
    int p = 0;
    for (const EdgeId e : c.fanin_edges(t)) {
      p = std::max(p, label[static_cast<std::size_t>(c.edge(e).from)]);
    }
    // Try l(t) = p with a K-feasible cut of height <= p-1.
    if (auto cut = min_height_cut(c, t, label, p - 1, options.k)) {
      m.label = p;
      m.cut = std::move(*cut);
    } else if (options.enable_decomposition) {
      // FlowSYN: widen to a min-cut (<= Cmax inputs) at decreasing heights
      // and resynthesize the cut function.
      m.label = p + 1;
      for (int h = p - 1; h >= p - options.min_cut_height_span && h >= 0; --h) {
        const auto wide = min_height_cut(c, t, label, h, options.cmax);
        if (!wide) break;  // cuts only get wider as the height shrinks
        const TruthTable f = cone_truth_table(c, t, *wide);
        std::vector<int> eff(wide->size());
        for (std::size_t i = 0; i < wide->size(); ++i) {
          eff[i] = label[static_cast<std::size_t>((*wide)[i])];
        }
        DecompOptions dopt;
        dopt.k = options.k;
        DecompResult d = decompose_for_label(f, eff, p, dopt);
        if (d.success) {
          m.label = p;
          m.cut = std::move(*wide);
          m.decomp = std::move(d);
          break;
        }
      }
      if (m.label == p + 1) m.cut = trivial_cut(c, t);
    } else {
      m.label = p + 1;
      m.cut = trivial_cut(c, t);
    }
    label[static_cast<std::size_t>(t)] = m.label;
  }
  return result;
}

Circuit generate_mapped_circuit(const Circuit& c, const FlowMapResult& result,
                                const FlowMapOptions& options) {
  Circuit out;
  std::unordered_map<NodeId, NodeId> mapped;  // original -> LUT node in `out`
  for (const NodeId pi : c.pis()) mapped.emplace(pi, out.add_pi(c.name(pi)));

  int fresh = 0;
  // Recursively materialize the LUT rooted at original node v.
  auto build = [&](auto&& self, NodeId v) -> NodeId {
    const auto it = mapped.find(v);
    if (it != mapped.end()) return it->second;
    TS_CHECK(c.is_gate(v), "mapping generation reached an unmapped non-gate");
    const NodeMapping& m = result.nodes[static_cast<std::size_t>(v)];
    std::vector<Circuit::FaninSpec> inputs;
    inputs.reserve(m.cut.size());
    for (const NodeId u : m.cut) inputs.push_back({self(self, u), 0});
    NodeId root;
    if (m.decomp.has_value()) {
      // Encoder LUTs first, then the decomposition root takes v's name.
      std::vector<NodeId> lut_node(m.decomp->luts.size(), kNoNode);
      for (std::size_t i = 0; i < m.decomp->luts.size(); ++i) {
        const DecompLut& lut = m.decomp->luts[i];
        std::vector<Circuit::FaninSpec> fanins;
        for (const DecompFanin& fin : lut.fanins) {
          if (fin.kind == DecompFanin::Kind::kInput) {
            fanins.push_back(inputs[static_cast<std::size_t>(fin.index)]);
          } else {
            fanins.push_back({lut_node[static_cast<std::size_t>(fin.index)], 0});
          }
        }
        const bool is_root = (i + 1 == m.decomp->luts.size());
        const std::string name =
            is_root ? c.name(v) : c.name(v) + "$e" + std::to_string(fresh++);
        lut_node[i] = out.add_gate(name, lut.func, fanins);
      }
      root = lut_node.back();
    } else {
      const TruthTable f = m.cut.empty() ? c.function(v) : cone_truth_table(c, v, m.cut);
      root = out.add_gate(c.name(v), f, inputs);
    }
    mapped.emplace(v, root);
    return root;
  };

  for (const NodeId po : c.pos()) {
    const auto& e = c.edge(c.fanin_edges(po)[0]);
    out.add_po(c.name(po), {build(build, e.from), 0});
  }
  out.validate();
  TS_CHECK(out.is_k_bounded(options.k), "mapped circuit exceeds K inputs per LUT");
  return out;
}

}  // namespace turbosyn
