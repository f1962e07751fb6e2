#include "bdd/bdd.hpp"

#include <algorithm>

#include "base/check.hpp"

namespace turbosyn {
namespace {

// Refs are packed three-per-64-bit-key in the caches, so they must stay
// below 2^21; a larger miter is refused by the node budget.
constexpr std::size_t kMaxNodes = (std::size_t{1} << 21) - 1;

std::uint64_t pack3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return a | (b << 21) | (c << 42);
}

}  // namespace

BddManager::BddManager(int num_vars, std::size_t node_budget)
    : num_vars_(num_vars), node_budget_(std::min(node_budget, kMaxNodes)) {
  TS_CHECK(num_vars >= 0 && num_vars <= 63, "BDD variable count out of range");
  nodes_.push_back(Node{num_vars_, 0, 0});  // terminal 0
  nodes_.push_back(Node{num_vars_, 1, 1});  // terminal 1
}

BddRef BddManager::make_node(int var, BddRef low, BddRef high) {
  if (low == high) return low;
  const std::uint64_t key = pack3(low, high, static_cast<std::uint64_t>(var));
  const auto it = unique_.find(key);
  if (it != unique_.end()) return it->second;
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

}  // namespace turbosyn
