#pragma once
// The mapping tail: a K-LUT network as one index-based list, the two
// passes that rewrite it, and the one named Circuit built from it.
//
// Mapping generation hands its chosen realizations to the tail as a LUT
// list (FlowSYN-s and the identity fallback convert their Circuit into
// one). A LUT is a function over fanins that name another LUT by index or a
// PI by position, each with a register count. Names stay implicit until the
// build: PIs and POs take the source circuit's names and LUT i takes its
// origin node's name, "<name>$e<encoder>" for encoder LUTs.
//
// Dedupe (strash-style): sequential mapping generation replicates logic
// freely (node replication is part of the retiming-aware formulation) and
// TurboSYN's decomposition can emit identical encoder LUTs for different
// roots. Two LUTs with the same function and the same (driver,
// register-count) fanins compute the same signal, so the later one is
// dropped, to a fixpoint; a cheap stand-in for the multi-output
// decomposition the paper lists as future work.
//
// Packing (mpack/flowpack-flavored): a LUT u with a single fanout into LUT
// v over a register-free connection is absorbed into v whenever the merged
// support still fits in K inputs. This only shortens paths, so depth and
// MDR ratio never degrade. The paper uses mpack [4] and flowpack [6] here
// and notes the post-processing is not its contribution; this greedy pass
// plays the same role.

#include <cstdint>
#include <vector>

#include "netlist/circuit.hpp"

namespace turbosyn {

struct LutNetwork {
  struct Fanin {
    std::int32_t src = 0;     // >= 0: LUT index; < 0: PI number ~src
    std::int32_t weight = 0;  // registers on the connection
    bool operator==(const Fanin&) const = default;
  };
  struct Lut {
    TruthTable func;
    std::vector<Fanin> fanins;  // func's variables, in order
    NodeId origin = kNoNode;    // source node that names the LUT
    int encoder = -1;           // >= 0: the "$e<encoder>" name suffix
    bool alive = true;          // false once dedupe or packing removed it
  };

  /// Names of the PIs, POs and LUT origins; must outlive the network.
  const Circuit* source = nullptr;
  std::vector<Lut> luts;
  std::vector<Fanin> pos;  // the driver of source->pos()[i]

  /// Every gate of `c` (constants included) as a LUT, in node order.
  static LutNetwork from_circuit(const Circuit& c);
  /// Live LUTs with at least one fanin.
  int num_luts() const;
  /// The named network: PIs, live LUTs in list order, then POs. Validated.
  Circuit to_circuit() const;
};

/// Merges structurally identical LUTs of `net` in place (readers move to the
/// first copy) and drops LUTs the POs no longer reach. Returns the number of
/// hash-consing rounds the fixpoint took.
int dedupe_luts(LutNetwork& net);

/// Packs single-fanout LUTs of `net` into their consumers, in place, where
/// the merged input count stays <= k. The network stays equivalent. Returns
/// the number of merges.
int pack_luts(LutNetwork& net, int k);

}  // namespace turbosyn
