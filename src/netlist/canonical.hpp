#pragma once
// Canonical structural form and content hash of a Circuit.
//
// The persistent flow-artifact cache (src/cache) keys entries by the circuit
// a flow actually ran on. Two parses of the same netlist must produce the
// same key even when nodes were inserted in a different order (BLIF permits
// any declaration order for .names), so the canonical form orders nodes by
// (kind, name) — names are unique per circuit — and rewrites every fanin
// reference as an index into that ordering. The derivation is iterative
// (one sort plus one serialization pass, no recursion) and covers exactly
// the inputs the label computation and mapping depend on: node kinds and
// names, gate truth tables, fanin slot order and per-edge register weights.
//
// The hash is FNV-1a/64 over the canonical text. Hash equality alone is
// never trusted: cache entries store the full canonical form and compare it
// on lookup, so a 64-bit collision degrades to a cache miss, not a wrong
// artifact.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/circuit.hpp"

namespace turbosyn {

inline constexpr std::uint64_t kFnvOffset64 = 0xcbf29ce484222325ull;

/// FNV-1a/64 over `bytes`, continuing from `state` (chainable).
std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t state = kFnvOffset64);

struct CanonicalForm {
  std::string text;         // order-independent serialization (see above)
  std::uint64_t hash = 0;   // fnv1a64(text)
  /// The node ordering the text serializes: sorted by (kind rank, name)
  /// with PIs first, then gates, then POs. order[i] is the input NodeId at
  /// canonical index i. The flow cache stores per-node payloads (label
  /// vectors) in this order so they survive parses that assigned different
  /// input ids.
  std::vector<NodeId> order;
};

/// Canonical form of `c`. Insertion-order independent: any circuit with the
/// same named nodes, functions and weighted connections maps to the same
/// text regardless of how it was built.
CanonicalForm canonical_circuit_form(const Circuit& c);

}  // namespace turbosyn
