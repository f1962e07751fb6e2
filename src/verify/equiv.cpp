#include "verify/equiv.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <unordered_map>
#include <vector>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "bdd/bdd.hpp"
#include "netlist/blif.hpp"
#include "sim/simulator.hpp"

namespace turbosyn {
namespace {

/// BDDs of every PO of a combinational circuit over the given PI variable
/// assignment (PI name -> BDD variable index).
std::map<std::string, BddRef> output_bdds(const Circuit& c, BddManager& mgr,
                                          const std::map<std::string, int>& pi_var) {
  std::vector<BddRef> node_bdd(static_cast<std::size_t>(c.num_nodes()), 0);
  for (const NodeId v : combinational_order(c)) {
    if (c.is_pi(v)) {
      const auto it = pi_var.find(c.name(v));
      TS_CHECK(it != pi_var.end(), "PI '" << c.name(v) << "' missing from the other circuit");
      node_bdd[static_cast<std::size_t>(v)] = mgr.var(it->second);
      continue;
    }
    if (c.is_po(v)) {
      const auto& e = c.edge(c.fanin_edges(v)[0]);
      TS_CHECK(e.weight == 0, "combinational check requires register-free circuits");
      node_bdd[static_cast<std::size_t>(v)] = node_bdd[static_cast<std::size_t>(e.from)];
      continue;
    }
    // Gate: Shannon-expand its truth table over the fanin BDDs.
    std::vector<BddRef> fanins;
    for (const EdgeId e : c.fanin_edges(v)) {
      TS_CHECK(c.edge(e).weight == 0, "combinational check requires register-free circuits");
      fanins.push_back(node_bdd[static_cast<std::size_t>(c.edge(e).from)]);
    }
    const TruthTable& f = c.function(v);
    BddRef acc = mgr.zero();
    for (std::uint32_t row = 0; row < f.num_bits(); ++row) {
      if (!f.bit(row)) continue;
      BddRef term = mgr.one();
      for (std::size_t i = 0; i < fanins.size(); ++i) {
        const BddRef lit = ((row >> i) & 1) ? fanins[i] : mgr.bdd_not(fanins[i]);
        term = mgr.bdd_and(term, lit);
      }
      acc = mgr.bdd_or(acc, term);
    }
    node_bdd[static_cast<std::size_t>(v)] = acc;
  }
  std::map<std::string, BddRef> outputs;
  for (const NodeId po : c.pos()) {
    outputs[po_display_name(c, po)] = node_bdd[static_cast<std::size_t>(po)];
  }
  return outputs;
}

/// One satisfying assignment of a non-zero BDD (variables not on the path
/// default to 0). Returned as a vector indexed by BDD variable, so circuits
/// with more than 64 PIs report exact (untruncated) counterexamples.
std::vector<bool> any_sat(const BddManager& mgr, BddRef f) {
  std::vector<bool> assignment(static_cast<std::size_t>(mgr.num_vars()), false);
  while (!mgr.is_const(f)) {
    if (mgr.high(f) != mgr.zero()) {
      assignment[static_cast<std::size_t>(mgr.var_of(f))] = true;
      f = mgr.high(f);
    } else {
      f = mgr.low(f);
    }
  }
  return assignment;
}

}  // namespace

std::optional<EquivCounterexample> combinational_counterexample(const Circuit& a,
                                                                const Circuit& b) {
  TS_CHECK(a.num_pis() == b.num_pis(), "PI count mismatch");
  std::map<std::string, int> pi_var;
  for (const NodeId pi : a.pis()) {
    pi_var.emplace(a.name(pi), static_cast<int>(pi_var.size()));
  }
  BddManager mgr(static_cast<int>(pi_var.size()));
  const auto out_a = output_bdds(a, mgr, pi_var);
  const auto out_b = output_bdds(b, mgr, pi_var);
  TS_CHECK(out_a.size() == out_b.size(), "PO count mismatch");
  for (const auto& [name, fa] : out_a) {
    const auto it = out_b.find(name);
    TS_CHECK(it != out_b.end(), "PO '" << name << "' missing from the other circuit");
    const BddRef miter = mgr.bdd_xor(fa, it->second);
    if (miter != mgr.zero()) {
      EquivCounterexample cex;
      cex.assignment = any_sat(mgr, miter);
      cex.po_name = name;
      return cex;
    }
  }
  return std::nullopt;
}

bool combinationally_equivalent(const Circuit& a, const Circuit& b) {
  return !combinational_counterexample(a, b).has_value();
}

std::optional<EquivCounterexample> sequential_counterexample(
    const Circuit& a, const Circuit& b, const SequentialCheckOptions& options) {
  TS_CHECK(a.num_pis() == b.num_pis(), "PI count mismatch");
  TS_CHECK(a.num_pos() == b.num_pos(), "PO count mismatch");
  // Match PIs and POs by name, as the combinational check does: two
  // equivalent circuits may declare them in different orders (e.g. after
  // mapping or a round-trip through BLIF), and a positional comparison would
  // report a spurious mismatch.
  std::vector<std::size_t> pi_in_b(static_cast<std::size_t>(a.num_pis()));
  {
    std::map<std::string, std::size_t> b_pi;
    for (std::size_t i = 0; i < b.pis().size(); ++i) b_pi[b.name(b.pis()[i])] = i;
    for (std::size_t i = 0; i < a.pis().size(); ++i) {
      const auto it = b_pi.find(a.name(a.pis()[i]));
      TS_CHECK(it != b_pi.end(),
               "PI '" << a.name(a.pis()[i]) << "' missing from the other circuit");
      pi_in_b[i] = it->second;
    }
  }
  std::vector<std::size_t> po_in_b(static_cast<std::size_t>(a.num_pos()));
  {
    std::map<std::string, std::size_t> b_po;
    for (std::size_t o = 0; o < b.pos().size(); ++o) {
      const auto [it, inserted] = b_po.emplace(po_display_name(b, b.pos()[o]), o);
      TS_CHECK(inserted, "duplicate PO name '" << it->first << "'");
    }
    for (std::size_t o = 0; o < a.pos().size(); ++o) {
      const std::string name = po_display_name(a, a.pos()[o]);
      const auto it = b_po.find(name);
      TS_CHECK(it != b_po.end(), "PO '" << name << "' missing from the other circuit");
      po_in_b[o] = it->second;
    }
  }
  Rng rng(options.seed);
  const auto stimulus = random_lane_stimulus(rng, a.num_pis(), options.cycles);
  Simulator sim_a(a);
  Simulator sim_b(b);
  std::vector<std::uint64_t> in_b(pi_in_b.size());
  for (std::size_t t = 0; t < stimulus.size(); ++t) {
    for (std::size_t i = 0; i < pi_in_b.size(); ++i) in_b[pi_in_b[i]] = stimulus[t][i];
    const std::span<const std::uint64_t> out_a = sim_a.step_lanes(stimulus[t]);
    const std::span<const std::uint64_t> out_b = sim_b.step_lanes(in_b);
    for (std::size_t o = 0; o < out_a.size(); ++o) {
      if (const std::uint64_t diff = out_a[o] ^ out_b[po_in_b[o]]; diff != 0) {
        EquivCounterexample cex;
        cex.cycle = t;
        cex.run = std::countr_zero(diff);
        cex.po_name = po_display_name(a, a.pos()[o]);
        return cex;
      }
    }
  }
  return std::nullopt;
}

bool sequentially_equivalent_bounded(const Circuit& a, const Circuit& b,
                                     const SequentialCheckOptions& options) {
  return !sequential_counterexample(a, b, options).has_value();
}

}  // namespace turbosyn
