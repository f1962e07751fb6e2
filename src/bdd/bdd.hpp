#pragma once
// Reduced Ordered Binary Decision Diagrams for the formal equivalence check.
//
// verify/equiv.cpp builds each primary output of two register-free circuits
// as an ROBDD over the shared primary inputs and XORs them into a miter;
// canonicity makes "miter is the zero terminal" an equivalence proof, and a
// walk to the one terminal is a counterexample.
//
// The manager uses a fixed variable order (BDD variable i is level i).
// Managers are short-lived (one per check), so there is no garbage
// collection; a node budget guards against blowup.

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace turbosyn {

using BddRef = std::uint32_t;

class BddManager {
 public:
  /// num_vars: number of levels; node budget bounds total unique nodes
  /// (exceeding it raises turbosyn::Error).
  explicit BddManager(int num_vars, std::size_t node_budget = 1u << 22);

  int num_vars() const { return num_vars_; }

  BddRef zero() const { return 0; }
  BddRef one() const { return 1; }
  bool is_const(BddRef f) const { return f <= 1; }

  BddRef var(int index);

  /// Level (variable index) of the node; num_vars() for terminals.
  int var_of(BddRef f) const { return nodes_[f].var; }
  BddRef low(BddRef f) const { return nodes_[f].low; }
  BddRef high(BddRef f) const { return nodes_[f].high; }

  BddRef ite(BddRef f, BddRef g, BddRef h);
  BddRef bdd_not(BddRef f) { return ite(f, zero(), one()); }
  BddRef bdd_and(BddRef f, BddRef g) { return ite(f, g, zero()); }
  BddRef bdd_or(BddRef f, BddRef g) { return ite(f, one(), g); }
  BddRef bdd_xor(BddRef f, BddRef g) { return ite(f, bdd_not(g), g); }

 private:
  struct Node {
    int var;
    BddRef low;
    BddRef high;
  };

  BddRef make_node(int var, BddRef low, BddRef high);

  int num_vars_;
  std::size_t node_budget_;
  std::vector<Node> nodes_;
  std::unordered_map<std::uint64_t, BddRef> unique_;       // (var, low, high) -> node
  std::unordered_map<std::uint64_t, BddRef> ite_cache_;    // (f, g, h) -> result
};

}  // namespace turbosyn
