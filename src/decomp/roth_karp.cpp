#include "decomp/roth_karp.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "base/check.hpp"

namespace turbosyn {
namespace {

/// The index of the `r`-th bound assignment in the classifier's visiting
/// order: r read with bound variable 0 as its most significant bit.
std::uint32_t visit_order_assignment(std::uint32_t r, int bound) {
  std::uint32_t a = 0;
  for (int j = 0; j < bound; ++j) {
    if ((r >> (bound - 1 - j)) & 1) a |= std::uint32_t{1} << j;
  }
  return a;
}

int ceil_log2(std::size_t x) {
  TS_ASSERT(x >= 1);
  return x == 1 ? 0 : std::bit_width(x - 1);
}

struct Signal {
  int eff;          // effective label as seen at the root
  DecompFanin ref;  // what drives this signal
};

}  // namespace

ColumnClasses classify_columns(const TruthTable& f, int bound) {
  TS_CHECK(bound >= 0 && bound <= f.num_vars(), "bound set larger than the function");
  const int free_vars = f.num_vars() - bound;
  const std::span<const std::uint64_t> words = f.words();
  ColumnClasses out;
  out.free_vars = free_vars;
  // Whole words per column when F >= 6; otherwise one 2^F-bit field.
  const std::size_t per_column = out.column_words();
  const std::uint64_t field_mask =
      free_vars >= 6 ? ~std::uint64_t{0} : (std::uint64_t{1} << (1u << free_vars)) - 1;
  out.code_of.resize(std::size_t{1} << bound);
  std::uint64_t field = 0;
  std::size_t classes = 0;
  for (std::uint32_t r = 0; r < out.code_of.size(); ++r) {
    const std::uint32_t a = visit_order_assignment(r, bound);
    std::span<const std::uint64_t> column;
    if (free_vars >= 6) {
      column = words.subspan(a * per_column, per_column);
    } else {
      const std::size_t first_bit = std::size_t{a} << free_vars;
      field = (words[first_bit >> 6] >> (first_bit & 63)) & field_mask;
      column = std::span<const std::uint64_t>(&field, 1);
    }
    std::size_t code = 0;
    while (code < classes && !std::ranges::equal(out.column(code), column)) ++code;
    if (code == classes) {
      out.columns.insert(out.columns.end(), column.begin(), column.end());
      ++classes;
    }
    out.code_of[a] = static_cast<std::uint32_t>(code);
  }
  return out;
}

namespace {

/// Backtracking driver for decompose_for_label. Each recursion level picks a
/// bound set, performs one Roth–Karp step, and recurses on the residue;
/// dead ends backtrack to the next bound-set choice under a global attempt
/// budget (the paper's Cmax <= 15 keeps these functions tiny, so the budget
/// is rarely consumed).
class DecompSearch {
 public:
  DecompSearch(int target_label, const DecompOptions& options)
      : target_(target_label), options_(options), attempts_left_(options.max_attempts) {}

  bool solve(const TruthTable& f, std::vector<Signal> signals, std::vector<DecompLut>& luts) {
    if (static_cast<int>(signals.size()) <= options_.k) {
      // Root LUT fits: success iff every remaining signal meets the target.
      DecompLut root;
      root.func = f;
      achieved_ = 0;
      for (const Signal& s : signals) {
        root.fanins.push_back(s.ref);
        achieved_ = std::max(achieved_, s.eff + 1);
      }
      if (achieved_ > target_) return false;
      luts.push_back(std::move(root));
      return true;
    }
    const int m = static_cast<int>(signals.size());
    // Candidates for the bound set: signals that can afford one more level,
    // least critical first.
    std::vector<int> candidates;
    for (int i = 0; i < m; ++i) {
      if (signals[static_cast<std::size_t>(i)].eff <= target_ - 2) candidates.push_back(i);
    }
    std::stable_sort(candidates.begin(), candidates.end(), [&](int a, int b) {
      return signals[static_cast<std::size_t>(a)].eff < signals[static_cast<std::size_t>(b)].eff;
    });

    for (int b = std::min<int>(options_.k, static_cast<int>(candidates.size())); b >= 2; --b) {
      for (std::size_t start = 0; start + static_cast<std::size_t>(b) <= candidates.size();
           ++start) {
        if (attempts_left_-- <= 0) return false;
        const std::span<const int> bound(candidates.data() + start, static_cast<std::size_t>(b));
        if (try_step(f, signals, bound, luts)) return true;
      }
    }
    return false;
  }

  int achieved() const { return achieved_; }

 private:
  bool try_step(const TruthTable& f, const std::vector<Signal>& signals,
                std::span<const int> bound, std::vector<DecompLut>& luts) {
    const int m = static_cast<int>(signals.size());
    const int b = static_cast<int>(bound.size());
    // Reorder: kept signals to variables 0..free_vars-1 in their order, bound
    // signal j to variable free_vars + j, so each column is one table slice.
    const int free_vars = m - b;
    std::vector<int> var_map(static_cast<std::size_t>(m), -1);
    for (int j = 0; j < b; ++j) {
      var_map[static_cast<std::size_t>(bound[static_cast<std::size_t>(j)])] = free_vars + j;
    }
    int next = 0;
    std::vector<int> kept;  // signal indices, in var order 0..free_vars-1
    for (int i = 0; i < m; ++i) {
      if (var_map[static_cast<std::size_t>(i)] < 0) {
        var_map[static_cast<std::size_t>(i)] = next++;
        kept.push_back(i);
      }
    }
    const ColumnClasses classes = classify_columns(f.remap(m, var_map), b);
    const int t = std::max(1, ceil_log2(classes.multiplicity()));
    if (t >= b) return false;  // no compression from this bound set

    // Encoder LUTs e_0..e_{t-1} over the bound signals: bit a of e_j is bit
    // j of a's class code, gathered into words.
    int eff_bound = 0;
    for (const int i : bound) {
      eff_bound = std::max(eff_bound, signals[static_cast<std::size_t>(i)].eff);
    }
    const std::size_t encoder_words = b > 6 ? std::size_t{1} << (b - 6) : 1;
    words_.assign(encoder_words * static_cast<std::size_t>(t), 0);
    for (std::uint32_t a = 0; a < classes.code_of.size(); ++a) {
      for (int j = 0; j < t; ++j) {
        words_[static_cast<std::size_t>(j) * encoder_words + (a >> 6)] |=
            static_cast<std::uint64_t>((classes.code_of[a] >> j) & 1) << (a & 63);
      }
    }
    const std::size_t luts_mark = luts.size();
    std::vector<Signal> remaining;
    for (int j = 0; j < t; ++j) {
      DecompLut lut;
      lut.func = TruthTable::from_words(
          b, std::span(words_).subspan(static_cast<std::size_t>(j) * encoder_words, encoder_words));
      for (const int i : bound) lut.fanins.push_back(signals[static_cast<std::size_t>(i)].ref);
      luts.push_back(std::move(lut));
      remaining.push_back(
          Signal{eff_bound + 1, DecompFanin::lut(static_cast<int>(luts.size() - 1))});
    }
    for (const int i : kept) remaining.push_back(signals[static_cast<std::size_t>(i)]);

    // Residue over (code variables low, kept variables high): stack the class
    // columns with the code on the top t variables (code c >= mu is an
    // unreachable don't care and reads class 0), then one remap moves the
    // code variables below the kept ones.
    const int new_arity = t + free_vars;
    const std::size_t per_column = classes.column_words();
    words_.assign(new_arity > 6 ? std::size_t{1} << (new_arity - 6) : 1, 0);
    for (std::size_t code = 0; code < (std::size_t{1} << t); ++code) {
      const std::span<const std::uint64_t> column =
          classes.column(code < classes.multiplicity() ? code : 0);
      if (free_vars >= 6) {
        std::ranges::copy(column, words_.begin() + static_cast<std::ptrdiff_t>(code * per_column));
      } else {
        const std::size_t first_bit = code << free_vars;
        words_[first_bit >> 6] |= column[0] << (first_bit & 63);
      }
    }
    std::vector<int> code_low(static_cast<std::size_t>(new_arity));
    for (int i = 0; i < free_vars; ++i) code_low[static_cast<std::size_t>(i)] = t + i;
    for (int j = 0; j < t; ++j) code_low[static_cast<std::size_t>(free_vars + j)] = j;
    const TruthTable next_f =
        TruthTable::from_words(new_arity, words_).remap(new_arity, code_low);

    if (solve(next_f, std::move(remaining), luts)) return true;
    luts.resize(luts_mark);  // undo this step's encoders and backtrack
    return false;
  }

  int target_;
  const DecompOptions& options_;
  int attempts_left_;
  int achieved_ = 0;
  std::vector<std::uint64_t> words_;  // encoder and residue words of one step
};

}  // namespace

SupportFunction restrict_to_support(const TruthTable& f) {
  SupportFunction out{f, f.support()};
  for (int v = f.num_vars() - 1; v >= 0; --v) {
    if (!std::binary_search(out.support.begin(), out.support.end(), v)) {
      out.func = out.func.drop_var(v);
    }
  }
  return out;
}

DecompResult decompose_on_support(const TruthTable& func, std::span<const int> support,
                                  std::span<const int> eff_labels, int target_label,
                                  const DecompOptions& options) {
  TS_CHECK(options.k >= 2, "LUT size must be at least 2");
  TS_CHECK(static_cast<std::size_t>(func.num_vars()) == support.size(),
           "one support input per variable required");
  std::vector<Signal> signals;
  signals.reserve(support.size());
  for (const int v : support) {
    TS_CHECK(v >= 0 && static_cast<std::size_t>(v) < eff_labels.size(),
             "support input " << v << " has no effective label");
    signals.push_back(Signal{eff_labels[static_cast<std::size_t>(v)], DecompFanin::input(v)});
  }
  DecompResult result;
  DecompSearch search(target_label, options);
  result.success = search.solve(func, std::move(signals), result.luts);
  result.achieved_label = search.achieved();
  if (!result.success) result.luts.clear();
  return result;
}

DecompResult decompose_for_label(const TruthTable& f, std::span<const int> eff_labels,
                                 int target_label, const DecompOptions& options) {
  TS_CHECK(static_cast<int>(eff_labels.size()) == f.num_vars(),
           "one effective label per input required");
  const SupportFunction reduced = restrict_to_support(f);
  return decompose_on_support(reduced.func, reduced.support, eff_labels, target_label, options);
}

bool evaluate_decomposition(const DecompResult& result, std::uint32_t assignment) {
  TS_CHECK(!result.luts.empty(), "empty decomposition");
  std::vector<bool> lut_value(result.luts.size(), false);
  for (std::size_t i = 0; i < result.luts.size(); ++i) {
    const DecompLut& lut = result.luts[i];
    std::uint32_t local = 0;
    for (std::size_t j = 0; j < lut.fanins.size(); ++j) {
      const DecompFanin& fin = lut.fanins[j];
      const bool v = fin.kind == DecompFanin::Kind::kInput
                         ? ((assignment >> fin.index) & 1) != 0
                         : lut_value[static_cast<std::size_t>(fin.index)];
      if (v) local |= std::uint32_t{1} << j;
    }
    lut_value[i] = lut.func.bit(local);
  }
  return lut_value.back();
}

bool decomposition_matches(const DecompResult& result, const TruthTable& f) {
  const std::uint32_t total = static_cast<std::uint32_t>(f.num_bits());
  for (std::uint32_t x = 0; x < total; ++x) {
    if (evaluate_decomposition(result, x) != f.bit(x)) return false;
  }
  return true;
}

}  // namespace turbosyn
