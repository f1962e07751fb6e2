#pragma once
// Dynamic truth tables over up to 16 variables.
//
// TurboSYN resynthesizes cut functions of width <= Cmax (15 in the paper),
// so a dense bit-vector representation is exact and fast. Bit i of the table
// is f evaluated at the assignment where variable j takes bit j of i
// (variable 0 is the least significant bit).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace turbosyn {

class TruthTable {
 public:
  static constexpr int kMaxVars = 16;

  /// The 0-variable constant-false function.
  TruthTable() : num_vars_(0), words_(1, 0) {}

  static TruthTable constant(int num_vars, bool value);
  /// The projection function f = x_index over num_vars variables.
  static TruthTable var(int num_vars, int index);
  /// The word-level multiplexer f = x_var ? high : low; both operands share
  /// the result's arity.
  static TruthTable mux(int var, const TruthTable& low, const TruthTable& high);
  /// From raw words; only the low 2^num_vars bits are used.
  static TruthTable from_words(int num_vars, std::span<const std::uint64_t> words);
  /// From a string of '0'/'1' of length 2^num_vars; character i is bit i.
  static TruthTable from_binary_string(int num_vars, const std::string& bits);

  int num_vars() const { return num_vars_; }
  std::size_t num_bits() const { return std::size_t{1} << num_vars_; }
  std::size_t num_words() const { return words_.size(); }
  std::uint64_t word(std::size_t i) const { return words_[i]; }
  std::span<const std::uint64_t> words() const { return words_; }

  bool bit(std::uint32_t assignment) const;
  void set_bit(std::uint32_t assignment, bool value);
  /// Alias for bit(): evaluates f on the given variable assignment.
  bool evaluate(std::uint32_t assignment) const { return bit(assignment); }

  bool is_const0() const;
  bool is_const1() const;
  std::size_t count_ones() const;

  TruthTable operator~() const;
  TruthTable operator&(const TruthTable& o) const;
  TruthTable operator|(const TruthTable& o) const;
  TruthTable operator^(const TruthTable& o) const;
  bool operator==(const TruthTable& o) const;
  bool operator!=(const TruthTable& o) const { return !(*this == o); }

  /// f with variable var fixed to value; the variable becomes a don't-care
  /// but the table keeps its arity.
  TruthTable cofactor(int var, bool value) const;
  bool depends_on(int var) const;
  /// Indices of variables f actually depends on, ascending.
  std::vector<int> support() const;

  /// Re-expresses f over new_num_vars variables where old variable i becomes
  /// variable var_map[i]. var_map entries must be distinct and within range.
  /// Word-level: about new_num_vars swaps of 2^(new_num_vars-6) words each.
  TruthTable remap(int new_num_vars, std::span<const int> var_map) const;

  /// Drops variable var (must not be in the support), shrinking arity by one;
  /// variables above var shift down.
  TruthTable drop_var(int var) const;

  std::uint64_t hash() const;
  /// Hex string, most significant word first (for debugging and tests).
  std::string to_hex() const;

 private:
  friend TruthTable compose(const TruthTable& g, std::span<const TruthTable> inputs);

  TruthTable(int num_vars, std::size_t word_count) : num_vars_(num_vars), words_(word_count, 0) {}
  void mask_tail();

  int num_vars_;
  std::vector<std::uint64_t> words_;
};

/// Composes g with per-input functions: result(x) = g(inputs[0](x), ...).
/// All entries of inputs must share the same arity, which the result keeps.
TruthTable compose(const TruthTable& g, std::span<const TruthTable> inputs);

}  // namespace turbosyn
