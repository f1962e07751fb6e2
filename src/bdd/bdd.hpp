#pragma once
// Reduced Ordered Binary Decision Diagrams.
//
// The paper performs sequential functional decomposition with OBDDs: the cut
// function is built with the bound set ordered first, and the column
// multiplicity of the decomposition is the number of distinct cofactors at
// the bound/free boundary — which on an ROBDD is simply the number of
// distinct nodes referenced across that level boundary.
//
// The manager uses a fixed variable order (BDD variable i is level i); the
// decomposition layer reorders by remapping truth-table variables before
// construction. Managers are short-lived (one per resynthesis attempt), so
// there is no garbage collection; a node budget guards against blowup.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/truth_table.hpp"

namespace turbosyn {

using BddRef = std::uint32_t;

class BddManager {
 public:
  /// Reaction to node-budget exhaustion. kThrow raises turbosyn::Error (the
  /// right default for verification, where a silently wrong BDD would be
  /// fatal). kSaturate latches exhausted() and returns the zero terminal for
  /// every further new node — results are garbage from then on, but callers
  /// that test exhausted() right after construction can degrade gracefully
  /// (the decomposition path treats it as "this attempt failed").
  enum class OnBudget : std::uint8_t { kThrow, kSaturate };

  /// num_vars: number of levels; node budget bounds total unique nodes.
  explicit BddManager(int num_vars, std::size_t node_budget = 1u << 22,
                      OnBudget on_budget = OnBudget::kThrow);

  int num_vars() const { return num_vars_; }
  std::size_t num_nodes() const { return nodes_.size(); }

  /// True iff the node budget fired in kSaturate mode; results built after
  /// that point are unusable.
  bool exhausted() const { return exhausted_; }

  BddRef zero() const { return 0; }
  BddRef one() const { return 1; }
  bool is_const(BddRef f) const { return f <= 1; }

  BddRef var(int index);
  BddRef nvar(int index);

  /// Level (variable index) of the node; num_vars() for terminals.
  int var_of(BddRef f) const { return nodes_[f].var; }
  BddRef low(BddRef f) const { return nodes_[f].low; }
  BddRef high(BddRef f) const { return nodes_[f].high; }

  BddRef ite(BddRef f, BddRef g, BddRef h);
  BddRef bdd_not(BddRef f) { return ite(f, zero(), one()); }
  BddRef bdd_and(BddRef f, BddRef g) { return ite(f, g, zero()); }
  BddRef bdd_or(BddRef f, BddRef g) { return ite(f, one(), g); }
  BddRef bdd_xor(BddRef f, BddRef g) { return ite(f, bdd_not(g), g); }

  /// f with variable `index` fixed to `value`.
  BddRef restrict_var(BddRef f, int index, bool value);

  /// Number of DAG nodes reachable from f (terminals excluded).
  std::size_t dag_size(BddRef f) const;

  /// Number of satisfying assignments of f over all num_vars() variables.
  std::uint64_t sat_count(BddRef f) const;

  /// Variables f depends on, ascending.
  std::vector<int> support(BddRef f) const;

  /// Distinct cofactors of f with respect to all assignments of variables
  /// 0..boundary-1, i.e. the ROBDD nodes referenced from above across the
  /// level boundary. Order is deterministic (DFS discovery). The size of the
  /// result is the column multiplicity of the (bound | free) decomposition.
  std::vector<BddRef> boundary_cofactors(BddRef f, int boundary) const;

  /// The cofactor of f under the complete bound-set assignment (bits of
  /// `assignment` give variables 0..boundary-1).
  BddRef cofactor_at(BddRef f, int boundary, std::uint32_t assignment) const;

  /// The ROBDD of t (table variable i is level i), built bottom-up from the
  /// table's natural layout, one level per pass. It makes exactly the nodes
  /// of the result, so a node budget fires on the same tables whatever the
  /// build order.
  BddRef from_truth_table(const TruthTable& t);
  /// Truth table of f over variables 0..arity-1; arity must cover support(f).
  TruthTable to_truth_table(BddRef f, int arity) const;

 private:
  struct Node {
    int var;
    BddRef low;
    BddRef high;
  };

  BddRef make_node(int var, BddRef low, BddRef high);

  int num_vars_;
  std::size_t node_budget_;
  OnBudget on_budget_ = OnBudget::kThrow;
  bool exhausted_ = false;
  std::vector<Node> nodes_;
  std::unordered_map<std::uint64_t, BddRef> unique_;       // (var, low, high) -> node
  std::unordered_map<std::uint64_t, BddRef> ite_cache_;    // (f, g, h) -> result
};

}  // namespace turbosyn
