#pragma once
// Label-driven single-output functional decomposition (Roth–Karp /
// Ashenhurst–Curtis), the resynthesis engine of TurboSYN and FlowSYN.
//
// Given a cut function f over m inputs (m may exceed K, bounded by Cmax),
// an "effective label" per input (l(u) - phi*w for sequential cuts, plain
// labels for combinational FlowSYN) and a target label T, produce a DAG of
// K-input LUTs computing f such that every input i reaches the root through
// at most T - eff_label(i) LUT levels. Inputs feeding the root directly need
// eff <= T-1; inputs routed through one encoder LUT need eff <= T-2, etc.
//
// Strategy (following FlowSYN / the paper): sort inputs by increasing
// effective label; repeatedly pick a bound set B of least-critical signals
// with at least one level of slack, compute the column multiplicity mu (the
// number of distinct columns of the bound/free decomposition chart), and
// replace B by t = ceil(log2 mu) encoder signals. Succeeds when at most K
// signals remain and the achieved label is <= T.
//
// The paper counts mu on an OBDD built bound-set-first. mu, the classes and
// their codes are properties of the cut function, not of its representation:
// with B moved onto the top variables of the truth table, each column is one
// contiguous slice of the table, and numbering the classes in the OBDD's DFS
// order keeps every encoder code bit-identical.

#include <cstdint>
#include <span>
#include <vector>

#include "base/truth_table.hpp"

namespace turbosyn {

/// Reference to a LUT fanin inside a DecompResult: either one of the
/// original cut inputs or a previously produced LUT.
struct DecompFanin {
  enum class Kind : std::uint8_t { kInput, kLut };
  Kind kind = Kind::kInput;
  int index = 0;

  static DecompFanin input(int i) { return {Kind::kInput, i}; }
  static DecompFanin lut(int i) { return {Kind::kLut, i}; }
  bool operator==(const DecompFanin&) const = default;
};

struct DecompLut {
  TruthTable func;                  // over fanins, in order
  std::vector<DecompFanin> fanins;  // size == func.num_vars() <= K
};

struct DecompResult {
  bool success = false;
  /// LUTs in topological order; the last one is the root (computes f).
  std::vector<DecompLut> luts;
  /// max over inputs of (eff_label(i) + LUT levels from i to root);
  /// meaningful only on success.
  int achieved_label = 0;
};

struct DecompOptions {
  int k = 5;              // LUT input count
  int max_attempts = 64;  // bound-set selection attempts per round
};

/// Attempts to realize f as a DAG of K-LUTs meeting `target_label`.
/// eff_labels[i] is the effective label of input variable i of f.
/// Equivalent to decompose_on_support(restrict_to_support(f), ...).
DecompResult decompose_for_label(const TruthTable& f, std::span<const int> eff_labels,
                                 int target_label, const DecompOptions& options);

/// A function restricted to its support: min-cuts can include inputs the
/// cut function does not depend on, and the search never sees them.
struct SupportFunction {
  TruthTable func;           // variable i of func is input support[i]
  std::vector<int> support;  // ascending input indices
};

SupportFunction restrict_to_support(const TruthTable& f);

/// decompose_for_label on a function already restricted to its support:
/// `func` is over support.size() variables, variable i is original input
/// support[i], and eff_labels is indexed by the original inputs. LUT fanins
/// name original inputs.
DecompResult decompose_on_support(const TruthTable& func, std::span<const int> support,
                                  std::span<const int> eff_labels, int target_label,
                                  const DecompOptions& options);

/// The column classes of one Roth–Karp step. The bound set occupies the top
/// `bound` variables of f (bound variable j is variable F + j, F = the number
/// of free variables), so the column of bound assignment a is the contiguous
/// slice [a << F, (a + 1) << F) of f's table.
struct ColumnClasses {
  /// Class code per bound assignment a (bit j of a = bound variable j).
  /// Codes are numbered by first appearance over the bound assignments
  /// visited with bound variable 0 as the most significant bit — the DFS
  /// order of an OBDD built bound-set-first.
  std::vector<std::uint32_t> code_of;
  /// Number of free variables F.
  int free_vars = 0;
  /// The class columns back to back, column_words() words each: class c is
  /// the column of its first bound assignment. Below 6 free variables a
  /// column is the low 2^F bits of one word, the rest zero.
  std::vector<std::uint64_t> columns;

  std::size_t column_words() const {
    return free_vars >= 6 ? std::size_t{1} << (free_vars - 6) : 1;
  }
  std::span<const std::uint64_t> column(std::size_t code) const {
    return std::span(columns).subspan(code * column_words(), column_words());
  }
  /// The column multiplicity mu.
  std::size_t multiplicity() const { return columns.size() / column_words(); }
};

/// Classifies the columns of f for the bound set = its top `bound` variables.
ColumnClasses classify_columns(const TruthTable& f, int bound);

/// Evaluates a DecompResult on a full input assignment (bit i = input i).
bool evaluate_decomposition(const DecompResult& result, std::uint32_t assignment);

/// True if the LUT DAG computes exactly f (exhaustive over f's inputs).
bool decomposition_matches(const DecompResult& result, const TruthTable& f);

}  // namespace turbosyn
