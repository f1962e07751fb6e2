#pragma once
// K-feasible cuts on combinational cones (the FlowMap network construction).
//
// For a root t with fanin labels already fixed, the question "is there a cut
// of t's fanin cone whose cut nodes all have label <= h and whose size is at
// most limit?" reduces to at most limit + 1 augmenting paths on the
// node-split cone network (graph/node_cut.hpp): nodes with label > h (and the
// root) collapse into the sink, every other cone node gets capacity 1, and
// cone leaves hang off the source.

#include <optional>
#include <span>
#include <vector>

#include "netlist/circuit.hpp"

namespace turbosyn {

/// Minimum cut of root's combinational fanin cone with all cut-node labels
/// <= height_limit; nullopt if every such cut has more than size_limit
/// nodes (or height_limit < 0). The returned cut is in deterministic node
/// order, never contains the root, and covers every path into the cone.
/// All edges in the cone must have weight 0.
std::optional<std::vector<NodeId>> min_height_cut(const Circuit& c, NodeId root,
                                                  std::span<const int> label, int height_limit,
                                                  int size_limit);

}  // namespace turbosyn
