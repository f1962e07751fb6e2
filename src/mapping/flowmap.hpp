#pragma once
// FlowMap (depth-optimal combinational K-LUT mapping, Cong–Ding '94) and
// FlowSYN (FlowMap + Roth–Karp functional decomposition to beat the combinational
// depth limit, Cong–Ding '93).
//
// Both run on a purely combinational circuit (all edge weights 0). Labels:
// l(PI) = 0; for a gate t with p = max fanin label, l(t) = p if a K-feasible
// cut of height <= p-1 exists (max-flow test), else p+1 — unless FlowSYN
// resynthesis finds a wide min-cut (size <= Cmax) whose function decomposes
// into K-LUTs with the critical inputs kept in the free set, which also
// achieves l(t) = p.

#include <optional>
#include <vector>

#include "decomp/roth_karp.hpp"
#include "netlist/circuit.hpp"

namespace turbosyn {

struct FlowMapOptions {
  int k = 5;                        // LUT input count
  bool enable_decomposition = false;  // false = FlowMap, true = FlowSYN
  int cmax = 15;                    // max resynthesis cut width (paper: 15)
  int min_cut_height_span = 2;      // try min-cuts at heights p-1 .. p-span
};

struct NodeMapping {
  int label = 0;
  std::vector<NodeId> cut;                 // LUT inputs if not resynthesized
  std::optional<DecompResult> decomp;      // LUT DAG over `cut` if resynthesized
};

struct FlowMapResult {
  std::vector<NodeMapping> nodes;  // indexed by NodeId
  int depth = 0;                   // max label over PO drivers
};

/// Computes labels and per-node cuts. The circuit must be combinational
/// (every edge weight 0) and k-bounded.
FlowMapResult flowmap(const Circuit& c, const FlowMapOptions& options);

/// Materializes the LUT network chosen by flowmap(): walks back from the
/// POs, instantiates one LUT (or decomposition DAG) per needed node. The
/// result is a combinational Circuit of K-LUTs with the same PIs/POs.
Circuit generate_mapped_circuit(const Circuit& c, const FlowMapResult& result,
                                const FlowMapOptions& options);

}  // namespace turbosyn
