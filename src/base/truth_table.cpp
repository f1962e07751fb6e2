#include "base/truth_table.hpp"

#include <algorithm>

#include "base/check.hpp"

namespace turbosyn {
namespace {

std::size_t word_count_for(int num_vars) {
  return num_vars <= 6 ? 1 : (std::size_t{1} << (num_vars - 6));
}

void check_arity(int num_vars) {
  TS_CHECK(num_vars >= 0 && num_vars <= TruthTable::kMaxVars,
           "truth table arity " << num_vars << " out of range [0, " << TruthTable::kMaxVars << "]");
}

// Every kernel below that acts on a variable inside a word (projection,
// cofactor, swap, mux) is a shift and a mask by these.
constexpr const auto& kProjection = TruthTable::kProjection;

// Exchanges variables i < j of a table held in `words`, in place. Bits whose
// i/j assignment is (1, 0) trade places with the matching (0, 1) bits:
//  - both in-word: one delta-swap per word;
//  - i in-word, j selecting words: a masked exchange between the word pair
//    that differs in j;
//  - both selecting words: whole-word swaps.
void swap_vars(std::vector<std::uint64_t>& words, int i, int j) {
  TS_ASSERT(i < j);
  if (j < 6) {
    const int shift = (1 << j) - (1 << i);
    const std::uint64_t mask = kProjection[i] & ~kProjection[j];
    for (auto& w : words) {
      const std::uint64_t t = (w ^ (w >> shift)) & mask;
      w ^= t | (t << shift);
    }
  } else if (i < 6) {
    const int shift = 1 << i;
    const std::uint64_t mask = ~kProjection[i];
    const std::size_t step = std::size_t{1} << (j - 6);
    for (std::size_t k = 0; k < words.size(); ++k) {
      if (k & step) continue;
      const std::uint64_t t = ((words[k] >> shift) ^ words[k | step]) & mask;
      words[k | step] ^= t;
      words[k] ^= t << shift;
    }
  } else {
    const std::size_t lo = std::size_t{1} << (i - 6);
    const std::size_t hi = std::size_t{1} << (j - 6);
    for (std::size_t k = 0; k < words.size(); ++k) {
      if ((k & lo) && !(k & hi)) std::swap(words[k], words[k - lo + hi]);
    }
  }
}

}  // namespace

void TruthTable::mask_tail() {
  if (num_vars_ < 6) {
    words_[0] &= (std::uint64_t{1} << (std::size_t{1} << num_vars_)) - 1;
  }
}

TruthTable TruthTable::constant(int num_vars, bool value) {
  check_arity(num_vars);
  TruthTable t(num_vars, word_count_for(num_vars));
  if (value) {
    std::fill(t.words_.begin(), t.words_.end(), ~std::uint64_t{0});
    t.mask_tail();
  }
  return t;
}

TruthTable TruthTable::var(int num_vars, int index) {
  check_arity(num_vars);
  TS_CHECK(index >= 0 && index < num_vars, "variable index " << index << " out of range");
  TruthTable t(num_vars, word_count_for(num_vars));
  if (index < 6) {
    std::fill(t.words_.begin(), t.words_.end(), kProjection[index]);
  } else {
    // Whole words alternate in blocks of 2^(index-6).
    const std::size_t block = std::size_t{1} << (index - 6);
    for (std::size_t w = 0; w < t.words_.size(); ++w) {
      if ((w / block) & 1) t.words_[w] = ~std::uint64_t{0};
    }
  }
  t.mask_tail();
  return t;
}

TruthTable TruthTable::mux(int var, const TruthTable& low, const TruthTable& high) {
  TS_CHECK(low.num_vars_ == high.num_vars_, "arity mismatch in truth table mux");
  TS_CHECK(var >= 0 && var < low.num_vars_, "mux variable out of range");
  TruthTable t(low);
  if (var < 6) {
    const std::uint64_t sel = kProjection[var];
    for (std::size_t k = 0; k < t.words_.size(); ++k) {
      t.words_[k] = (low.words_[k] & ~sel) | (high.words_[k] & sel);
    }
  } else {
    const std::size_t step = std::size_t{1} << (var - 6);
    for (std::size_t k = 0; k < t.words_.size(); ++k) {
      if (k & step) t.words_[k] = high.words_[k];
    }
  }
  return t;
}

TruthTable TruthTable::from_words(int num_vars, std::span<const std::uint64_t> words) {
  check_arity(num_vars);
  TruthTable t(num_vars, word_count_for(num_vars));
  TS_CHECK(words.size() >= t.words_.size(),
           "need " << t.words_.size() << " words for " << num_vars << " variables");
  std::copy_n(words.begin(), t.words_.size(), t.words_.begin());
  t.mask_tail();
  return t;
}

TruthTable TruthTable::from_binary_string(int num_vars, const std::string& bits) {
  check_arity(num_vars);
  TruthTable t(num_vars, word_count_for(num_vars));
  TS_CHECK(bits.size() == t.num_bits(),
           "binary string length " << bits.size() << " != 2^" << num_vars);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    TS_CHECK(bits[i] == '0' || bits[i] == '1', "invalid character in binary string");
    if (bits[i] == '1') t.set_bit(static_cast<std::uint32_t>(i), true);
  }
  return t;
}

bool TruthTable::bit(std::uint32_t assignment) const {
  TS_ASSERT(assignment < num_bits());
  return (words_[assignment >> 6] >> (assignment & 63)) & 1;
}

void TruthTable::set_bit(std::uint32_t assignment, bool value) {
  TS_ASSERT(assignment < num_bits());
  const std::uint64_t mask = std::uint64_t{1} << (assignment & 63);
  if (value) {
    words_[assignment >> 6] |= mask;
  } else {
    words_[assignment >> 6] &= ~mask;
  }
}

bool TruthTable::is_const0() const {
  return std::all_of(words_.begin(), words_.end(), [](std::uint64_t w) { return w == 0; });
}

bool TruthTable::is_const1() const { return *this == constant(num_vars_, true); }

std::size_t TruthTable::count_ones() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
  return n;
}

TruthTable TruthTable::operator~() const {
  TruthTable t(*this);
  for (auto& w : t.words_) w = ~w;
  t.mask_tail();
  return t;
}

TruthTable TruthTable::operator&(const TruthTable& o) const {
  TS_CHECK(num_vars_ == o.num_vars_, "arity mismatch in truth table AND");
  TruthTable t(*this);
  for (std::size_t i = 0; i < words_.size(); ++i) t.words_[i] &= o.words_[i];
  return t;
}

TruthTable TruthTable::operator|(const TruthTable& o) const {
  TS_CHECK(num_vars_ == o.num_vars_, "arity mismatch in truth table OR");
  TruthTable t(*this);
  for (std::size_t i = 0; i < words_.size(); ++i) t.words_[i] |= o.words_[i];
  return t;
}

TruthTable TruthTable::operator^(const TruthTable& o) const {
  TS_CHECK(num_vars_ == o.num_vars_, "arity mismatch in truth table XOR");
  TruthTable t(*this);
  for (std::size_t i = 0; i < words_.size(); ++i) t.words_[i] ^= o.words_[i];
  return t;
}

bool TruthTable::operator==(const TruthTable& o) const {
  return num_vars_ == o.num_vars_ && words_ == o.words_;
}

TruthTable TruthTable::cofactor(int var, bool value) const {
  TS_CHECK(var >= 0 && var < num_vars_, "cofactor variable out of range");
  TruthTable t(*this);
  if (var < 6) {
    const int shift = 1 << var;
    const std::uint64_t keep = value ? kProjection[var] : ~kProjection[var];
    for (auto& w : t.words_) {
      const std::uint64_t sel = w & keep;
      w = value ? (sel | (sel >> shift)) : (sel | (sel << shift));
    }
  } else {
    const std::size_t block = std::size_t{1} << (var - 6);
    for (std::size_t w = 0; w < t.words_.size(); ++w) {
      const std::size_t base = (w / (2 * block)) * 2 * block + (w % block);
      t.words_[w] = words_[base + (value ? block : 0)];
    }
  }
  return t;
}

bool TruthTable::depends_on(int var) const {
  return cofactor(var, false) != cofactor(var, true);
}

std::vector<int> TruthTable::support() const {
  std::vector<int> vars;
  for (int v = 0; v < num_vars_; ++v) {
    if (depends_on(v)) vars.push_back(v);
  }
  return vars;
}

TruthTable TruthTable::remap(int new_num_vars, std::span<const int> var_map) const {
  check_arity(new_num_vars);
  TS_CHECK(static_cast<int>(var_map.size()) == num_vars_, "remap needs one entry per variable");
  std::uint32_t targets = 0;
  for (const int nv : var_map) {
    TS_CHECK(nv >= 0 && nv < new_num_vars, "remap target out of range");
    TS_CHECK(!((targets >> nv) & 1), "remap targets must be distinct");
    targets |= std::uint32_t{1} << nv;
  }

  // Widen: the new variables num_vars_..new_num_vars-1 are don't-cares, so
  // replicate the table across them (within the word first, below 6).
  TruthTable t(new_num_vars, word_count_for(new_num_vars));
  std::uint64_t low = words_[0];
  for (int v = num_vars_; v < 6; ++v) low |= low << (1 << v);
  for (std::size_t k = 0; k < t.words_.size(); ++k) {
    t.words_[k] = words_.size() == 1 ? low : words_[k % words_.size()];
  }

  // Complete var_map to a permutation (don't-cares take the unused targets
  // in order), then sort variables into place with one swap per position.
  // at[p] is the source variable currently sitting at position p.
  int dest[kMaxVars] = {};
  int at[kMaxVars] = {};
  for (int v = 0, free_target = 0; v < new_num_vars; ++v) {
    if (v < num_vars_) {
      dest[v] = var_map[static_cast<std::size_t>(v)];
    } else {
      while ((targets >> free_target) & 1) ++free_target;
      dest[v] = free_target++;
    }
    at[v] = v;
  }
  for (int p = 0; p < new_num_vars; ++p) {
    int q = p;
    while (dest[at[q]] != p) ++q;
    if (q == p) continue;
    swap_vars(t.words_, p, q);
    std::swap(at[p], at[q]);
  }
  t.mask_tail();
  return t;
}

TruthTable TruthTable::drop_var(int var) const {
  TS_CHECK(var >= 0 && var < num_vars_, "drop_var variable out of range");
  TS_CHECK(!depends_on(var), "cannot drop a variable in the support");
  // Rotate var to the top (the others keep their order), then keep the low
  // half: f does not depend on var, so that half is the whole function.
  std::vector<int> var_map(static_cast<std::size_t>(num_vars_));
  for (int v = 0; v < num_vars_; ++v) {
    var_map[static_cast<std::size_t>(v)] = v < var ? v : (v == var ? num_vars_ - 1 : v - 1);
  }
  TruthTable t = remap(num_vars_, var_map);
  t.num_vars_ = num_vars_ - 1;
  t.words_.resize(word_count_for(t.num_vars_));
  t.mask_tail();
  return t;
}

std::uint64_t TruthTable::hash() const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(num_vars_);
  for (std::uint64_t w : words_) {
    h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

std::string TruthTable::to_hex() const {
  static const char* digits = "0123456789abcdef";
  std::string s;
  const std::size_t nibbles = std::max<std::size_t>(1, num_bits() / 4);
  for (std::size_t i = nibbles; i-- > 0;) {
    const std::uint64_t w = words_[(i * 4) >> 6];
    s.push_back(digits[(w >> ((i * 4) & 63)) & 0xf]);
  }
  return s;
}

TruthTable compose(const TruthTable& g, std::span<const TruthTable> inputs) {
  TS_CHECK(static_cast<int>(inputs.size()) == g.num_vars(),
           "compose needs one input function per variable of g");
  if (inputs.empty()) return g;  // g is a constant over 0 vars
  const int arity = inputs[0].num_vars();
  for (const auto& in : inputs) {
    TS_CHECK(in.num_vars() == arity, "compose inputs must share arity");
  }
  // Word-parallel minterm expansion: for every on-set row of g, AND the
  // (possibly complemented) input tables together and OR into the result.
  // g has at most K inputs, so this is <= 2^K word-sweeps — far cheaper than
  // per-bit evaluation for the wide tables used during cut extraction.
  TruthTable result = TruthTable::constant(arity, false);
  const std::size_t words = result.num_words();
  for (std::uint32_t row = 0; row < g.num_bits(); ++row) {
    if (!g.bit(row)) continue;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t acc = ~std::uint64_t{0};
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        const std::uint64_t word = inputs[i].word(w);
        acc &= ((row >> i) & 1) ? word : ~word;
        if (acc == 0) break;
      }
      if (acc != 0) {
        result.words_[w] |= acc;
      }
    }
  }
  result.mask_tail();
  return result;
}

}  // namespace turbosyn
