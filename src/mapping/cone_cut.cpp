#include "mapping/cone_cut.hpp"

#include <algorithm>
#include <unordered_map>

#include "base/check.hpp"
#include "graph/node_cut.hpp"

namespace turbosyn {

std::optional<std::vector<NodeId>> min_height_cut(const Circuit& c, NodeId root,
                                                  std::span<const int> label, int height_limit,
                                                  int size_limit) {
  TS_CHECK(size_limit >= 1, "cut size limit must be positive");
  if (height_limit < 0) return std::nullopt;

  // Collect the fanin cone (root included) over zero-weight edges.
  std::vector<NodeId> cone;
  std::unordered_map<NodeId, int> cone_index;  // node -> dense index
  cone.push_back(root);
  cone_index.emplace(root, 0);
  for (std::size_t i = 0; i < cone.size(); ++i) {
    const NodeId v = cone[i];
    // Only expand past nodes that are (or must be) inside the LUT: the root
    // and nodes whose label exceeds the height limit. Nodes that may sit on
    // the cut still need their fanins reachable for flow correctness, so
    // expand everything — cuts deeper than a splittable node matter.
    for (const EdgeId e : c.fanin_edges(v)) {
      TS_CHECK(c.edge(e).weight == 0, "min_height_cut crossed a registered edge");
      const NodeId u = c.edge(e).from;
      if (cone_index.emplace(u, static_cast<int>(cone.size())).second) cone.push_back(u);
    }
  }

  // Node-cut network over the cone: collapsed nodes (root, label >
  // height_limit) are merged into the sink, every other node has capacity 1,
  // and cone leaves (no fanins) are fed by the source.
  const std::size_t n = cone.size();
  std::vector<std::int32_t> fanin_offset(n + 1, 0);
  std::vector<std::int32_t> fanins;
  std::vector<std::int64_t> capacity(n, 1);
  std::vector<std::uint8_t> flags(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v = cone[i];
    const auto fanin_edges = c.fanin_edges(v);
    if (v == root || label[static_cast<std::size_t>(v)] > height_limit) {
      flags[i] = NodeCut::kSink;
    } else if (fanin_edges.empty()) {
      flags[i] = NodeCut::kFromSource;
    }
    for (const EdgeId e : fanin_edges) fanins.push_back(cone_index.at(c.edge(e).from));
    fanin_offset[i + 1] = static_cast<std::int32_t>(fanins.size());
  }

  NodeCut flow;
  const std::int64_t value =
      flow.run(NodeCut::Network{std::span(fanin_offset).first(n), std::span(fanin_offset).last(n),
                                fanins, capacity, flags},
               size_limit);
  if (value > size_limit) return std::nullopt;

  std::vector<NodeId> cut;
  for (const std::int32_t i : flow.cut()) cut.push_back(cone[static_cast<std::size_t>(i)]);
  std::sort(cut.begin(), cut.end());
  TS_ASSERT(static_cast<std::int64_t>(cut.size()) == value);
  return cut;
}

}  // namespace turbosyn
