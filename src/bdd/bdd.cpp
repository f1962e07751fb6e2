#include "bdd/bdd.hpp"

#include <algorithm>
#include <unordered_set>

#include "base/check.hpp"

namespace turbosyn {
namespace {

// Refs are packed three-per-64-bit-key in the caches, so they must stay
// below 2^21; that is far beyond any ROBDD this library builds (<= 16 vars).
constexpr std::size_t kMaxNodes = (std::size_t{1} << 21) - 1;

std::uint64_t pack3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return a | (b << 21) | (c << 42);
}

}  // namespace

BddManager::BddManager(int num_vars, std::size_t node_budget, OnBudget on_budget)
    : num_vars_(num_vars),
      node_budget_(std::min(node_budget, kMaxNodes)),
      on_budget_(on_budget) {
  TS_CHECK(num_vars >= 0 && num_vars <= 63, "BDD variable count out of range");
  nodes_.push_back(Node{num_vars_, 0, 0});  // terminal 0
  nodes_.push_back(Node{num_vars_, 1, 1});  // terminal 1
}

BddRef BddManager::make_node(int var, BddRef low, BddRef high) {
  if (low == high) return low;
  const std::uint64_t key = pack3(low, high, static_cast<std::uint64_t>(var));
  const auto it = unique_.find(key);
  if (it != unique_.end()) return it->second;
  if (on_budget_ == OnBudget::kSaturate && nodes_.size() >= node_budget_) {
    exhausted_ = true;
    return zero();
  }
  TS_CHECK(nodes_.size() < node_budget_, "BDD node budget exhausted");
  const BddRef ref = static_cast<BddRef>(nodes_.size());
  nodes_.push_back(Node{var, low, high});
  unique_.emplace(key, ref);
  return ref;
}

BddRef BddManager::var(int index) {
  TS_CHECK(index >= 0 && index < num_vars_, "BDD variable index out of range");
  return make_node(index, zero(), one());
}

BddRef BddManager::nvar(int index) {
  TS_CHECK(index >= 0 && index < num_vars_, "BDD variable index out of range");
  return make_node(index, one(), zero());
}

BddRef BddManager::ite(BddRef f, BddRef g, BddRef h) {
  // Terminal cases.
  if (f == one()) return g;
  if (f == zero()) return h;
  if (g == h) return g;
  if (g == one() && h == zero()) return f;

  const std::uint64_t key = pack3(f, g, h);
  const auto it = ite_cache_.find(key);
  if (it != ite_cache_.end()) return it->second;

  const int m = std::min({var_of(f), var_of(g), var_of(h)});
  const auto cf = [&](BddRef x, bool hi) { return var_of(x) == m ? (hi ? high(x) : low(x)) : x; };
  const BddRef lo = ite(cf(f, false), cf(g, false), cf(h, false));
  const BddRef hi = ite(cf(f, true), cf(g, true), cf(h, true));
  const BddRef result = make_node(m, lo, hi);
  ite_cache_.emplace(key, result);
  return result;
}

BddRef BddManager::restrict_var(BddRef f, int index, bool value) {
  TS_CHECK(index >= 0 && index < num_vars_, "BDD variable index out of range");
  if (var_of(f) > index) return f;
  if (var_of(f) == index) return value ? high(f) : low(f);
  // Rebuild above the restricted level. Small recursion: memoization via ite
  // machinery is unnecessary because this is only used on shallow prefixes.
  const BddRef lo = restrict_var(low(f), index, value);
  const BddRef hi = restrict_var(high(f), index, value);
  return make_node(var_of(f), lo, hi);
}

std::size_t BddManager::dag_size(BddRef f) const {
  std::unordered_set<BddRef> seen;
  std::vector<BddRef> stack{f};
  while (!stack.empty()) {
    const BddRef x = stack.back();
    stack.pop_back();
    if (is_const(x) || !seen.insert(x).second) continue;
    stack.push_back(low(x));
    stack.push_back(high(x));
  }
  return seen.size();
}

std::uint64_t BddManager::sat_count(BddRef f) const {
  std::unordered_map<BddRef, std::uint64_t> memo;
  // count(x) = satisfying assignments over variables [var_of(x), num_vars).
  auto count = [&](auto&& self, BddRef x) -> std::uint64_t {
    if (x == zero()) return 0;
    if (x == one()) return 1;
    const auto it = memo.find(x);
    if (it != memo.end()) return it->second;
    const std::uint64_t lo =
        self(self, low(x)) << (var_of(low(x)) - var_of(x) - 1);
    const std::uint64_t hi =
        self(self, high(x)) << (var_of(high(x)) - var_of(x) - 1);
    const std::uint64_t result = lo + hi;
    memo.emplace(x, result);
    return result;
  };
  return count(count, f) << var_of(f);
}

std::vector<int> BddManager::support(BddRef f) const {
  std::vector<bool> present(static_cast<std::size_t>(num_vars_), false);
  std::unordered_set<BddRef> seen;
  std::vector<BddRef> stack{f};
  while (!stack.empty()) {
    const BddRef x = stack.back();
    stack.pop_back();
    if (is_const(x) || !seen.insert(x).second) continue;
    present[static_cast<std::size_t>(var_of(x))] = true;
    stack.push_back(low(x));
    stack.push_back(high(x));
  }
  std::vector<int> vars;
  for (int v = 0; v < num_vars_; ++v) {
    if (present[static_cast<std::size_t>(v)]) vars.push_back(v);
  }
  return vars;
}

std::vector<BddRef> BddManager::boundary_cofactors(BddRef f, int boundary) const {
  TS_CHECK(boundary >= 0 && boundary <= num_vars_, "boundary out of range");
  std::vector<BddRef> result;
  std::unordered_set<BddRef> emitted;
  std::unordered_set<BddRef> visited;
  // DFS through the bound-set region (vars < boundary); anything referenced
  // at or below the boundary is a distinct cofactor.
  std::vector<BddRef> stack{f};
  while (!stack.empty()) {
    const BddRef x = stack.back();
    stack.pop_back();
    if (is_const(x) || var_of(x) >= boundary) {
      if (emitted.insert(x).second) result.push_back(x);
      continue;
    }
    if (!visited.insert(x).second) continue;
    stack.push_back(high(x));
    stack.push_back(low(x));
  }
  return result;
}

BddRef BddManager::cofactor_at(BddRef f, int boundary, std::uint32_t assignment) const {
  while (!is_const(f) && var_of(f) < boundary) {
    f = (assignment >> var_of(f)) & 1 ? high(f) : low(f);
  }
  return f;
}

BddRef BddManager::from_truth_table(const TruthTable& t) {
  TS_CHECK(t.num_vars() <= num_vars_, "truth table has more variables than the manager");
  // Bottom-up over the table's own layout: after level v, sub[a] is the
  // cofactor of t with variables 0..v-1 fixed to a. Every node made is a
  // node of the final ROBDD, and each is made once.
  std::vector<BddRef> sub(t.num_bits());
  for (std::uint32_t a = 0; a < sub.size(); ++a) sub[a] = t.bit(a) ? one() : zero();
  for (int v = t.num_vars() - 1; v >= 0; --v) {
    const std::size_t half = std::size_t{1} << v;
    for (std::size_t a = 0; a < half; ++a) sub[a] = make_node(v, sub[a], sub[a | half]);
  }
  return sub[0];
}

TruthTable BddManager::to_truth_table(BddRef f, int arity) const {
  TS_CHECK(arity >= 0 && arity <= TruthTable::kMaxVars, "arity out of range");
  std::unordered_map<BddRef, TruthTable> memo;
  auto build = [&](auto&& self, BddRef x) -> const TruthTable& {
    const auto it = memo.find(x);
    if (it != memo.end()) return it->second;
    TruthTable result;
    if (is_const(x)) {
      result = TruthTable::constant(arity, x == one());
    } else {
      TS_CHECK(var_of(x) < arity, "BDD depends on a variable beyond the requested arity");
      result = TruthTable::mux(var_of(x), self(self, low(x)), self(self, high(x)));
    }
    return memo.emplace(x, std::move(result)).first->second;
  };
  return build(build, f);
}

}  // namespace turbosyn
