// Unit tests of the label computation (TurboMap/TurboSYN core) and the
// expanded-circuit machinery, on circuits small enough to reason about by
// hand — plus property tests against the exact MDR of the input.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/check.hpp"
#include "core/expanded.hpp"
#include "core/labeling.hpp"
#include "core/mapgen.hpp"
#include "netlist/gates.hpp"
#include "oracle.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"

namespace turbosyn {
namespace {

LabelOptions turbomap_options(int k) {
  LabelOptions lo;
  lo.k = k;
  return lo;
}

TEST(Expanded, PathsCarryRegisterCounts) {
  // Ring of 3 gates, one register; expanding from r0 must produce copies
  // r0^0, r2^0 ... and eventually r0^1 (one lap).
  const Circuit c = ring_circuit(3, 1);
  const NodeId r0 = c.find("r0");
  std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 1);
  for (const NodeId pi : c.pis()) labels[static_cast<std::size_t>(pi)] = 0;
  ExpandedNetwork net(c, labels, 3, r0, 1, ExpandedOptions{});
  EXPECT_TRUE(net.viable());
  EXPECT_GE(net.num_expanded_nodes(), 4);
  const auto cut = net.find_cut(5);
  ASSERT_TRUE(cut.has_value());
  // The cut covers the enable input and the loop signal at some register depth.
  bool loop_signal = false;
  for (const SeqCutNode& n : *cut) {
    if (!c.is_pi(n.node)) {
      EXPECT_GE(n.w, 1);
      loop_signal = true;
    }
  }
  EXPECT_TRUE(loop_signal);
}

TEST(Expanded, CutFunctionMatchesHandComputation) {
  // figure1: cut {g2^1, a, b, c, d} of E_g2 computes s ^ (a&b) ^ (c&d).
  const Circuit c = figure1_circuit();
  const NodeId g2 = c.find("g2");
  std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 2);
  for (const NodeId pi : c.pis()) labels[static_cast<std::size_t>(pi)] = 0;
  ExpandedNetwork net(c, labels, 1, g2, 2, ExpandedOptions{});
  const auto cut = net.find_cut(15);
  ASSERT_TRUE(cut.has_value());
  ASSERT_EQ(cut->size(), 5u);
  const TruthTable f = net.cut_function(*cut);
  // Identify variable indices by cut node identity.
  int s_var = -1;
  for (std::size_t i = 0; i < cut->size(); ++i) {
    if ((*cut)[i].node == g2) {
      EXPECT_EQ((*cut)[i].w, 1);
      s_var = static_cast<int>(i);
    }
  }
  ASSERT_NE(s_var, -1);
  // Flipping s always flips f (it enters through XOR).
  EXPECT_EQ(f.cofactor(s_var, false), ~f.cofactor(s_var, true));
  EXPECT_EQ(f.count_ones(), f.num_bits() / 2);
}

TEST(Labeling, SingleLutLoopConvergesAtRatio1) {
  // One XOR gate with a self-loop register: a single LUT, ratio 1.
  Circuit c;
  const NodeId en = c.add_pi("en");
  const NodeId g = c.declare_gate("g");
  const Circuit::FaninSpec f[2] = {{g, 1}, {en, 0}};
  c.finish_gate(g, tt_xor(2), f);
  c.add_po("$po:q", {g, 0});
  const LabelResult r = compute_labels(c, 1, turbomap_options(4));
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.labels[static_cast<std::size_t>(g)], 1);
}

/// Ring with a *distinct* enable per stage (the shared-enable ring of
/// ring_circuit collapses under XOR cancellation): covering two stages needs
/// 3 distinct inputs, so ratio 1 is feasible at K=3 but not at K=2.
Circuit distinct_enable_ring() {
  Circuit c;
  std::vector<NodeId> en;
  for (int i = 0; i < 4; ++i) en.push_back(c.add_pi("en" + std::to_string(i)));
  std::vector<NodeId> ring;
  for (int i = 0; i < 4; ++i) ring.push_back(c.declare_gate("r" + std::to_string(i)));
  for (int i = 0; i < 4; ++i) {
    const int w = (i % 2 == 0) ? 1 : 0;  // 2 registers on the 4-stage loop
    const Circuit::FaninSpec f[2] = {{ring[static_cast<std::size_t>((i + 3) % 4)], w},
                                     {en[static_cast<std::size_t>(i)], 0}};
    c.finish_gate(ring[static_cast<std::size_t>(i)], tt_xor(2), f);
  }
  c.add_po("$po:q", {ring[0], 0});
  c.validate();
  return c;
}

TEST(Labeling, RingFeasibilityTracksLutCapacity) {
  const Circuit c = distinct_enable_ring();
  EXPECT_TRUE(compute_labels(c, 1, turbomap_options(3)).feasible);
  EXPECT_FALSE(compute_labels(c, 1, turbomap_options(2)).feasible);
  EXPECT_TRUE(compute_labels(c, 2, turbomap_options(2)).feasible);
}

// infeasible_scc_updates counts the label updates of the SCCs whose
// iteration proved divergence: none on a feasible probe, and on an
// infeasible one at least the diverging SCC's first sweep, never more than
// the probe's updates.
TEST(Labeling, InfeasibleSccUpdatesCountTheDivergenceWork) {
  const Circuit ring = distinct_enable_ring();
  const LabelResult feasible = compute_labels(ring, 1, turbomap_options(3));
  ASSERT_TRUE(feasible.feasible);
  EXPECT_EQ(feasible.stats.infeasible_scc_updates, 0);
  const LabelResult infeasible = compute_labels(ring, 1, turbomap_options(2));
  ASSERT_FALSE(infeasible.feasible);
  ASSERT_EQ(infeasible.status, Status::kOk);
  EXPECT_GE(infeasible.stats.infeasible_scc_updates, 4);  // one sweep over the ring
  EXPECT_LE(infeasible.stats.infeasible_scc_updates, infeasible.stats.node_updates);

  for (const bool decomposition : {false, true}) {
    int infeasible_probes = 0;
    for (const BenchmarkSpec& spec : tiny_suite()) {
      const Circuit c = generate_fsm_circuit(spec);
      LabelOptions lo = turbomap_options(5);
      lo.enable_decomposition = decomposition;
      LabelEngine engine(c, lo);
      for (int phi = 1;; ++phi) {
        const LabelResult r = engine.compute(phi);
        const std::string at = spec.name + (decomposition ? " turbosyn" : " turbomap") +
                               " phi=" + std::to_string(phi);
        if (r.feasible) {
          EXPECT_EQ(r.stats.infeasible_scc_updates, 0) << at;
          break;
        }
        ++infeasible_probes;
        EXPECT_GE(r.stats.infeasible_scc_updates, 1) << at;
        EXPECT_LE(r.stats.infeasible_scc_updates, r.stats.node_updates) << at;
      }
    }
    EXPECT_GT(infeasible_probes, 0) << (decomposition ? "turbosyn" : "turbomap");
  }
}

TEST(Labeling, FeasibilityIsMonotoneInPhiAndK) {
  for (const auto& spec : tiny_suite()) {
    const Circuit c = generate_fsm_circuit(spec);
    bool prev = false;
    for (int phi = 1; phi <= 6; ++phi) {
      const bool feasible = compute_labels(c, phi, turbomap_options(5)).feasible;
      EXPECT_TRUE(!prev || feasible) << spec.name << " phi=" << phi;  // monotone
      prev = feasible;
    }
    // Larger K never hurts.
    for (int phi = 1; phi <= 3; ++phi) {
      const bool k4 = compute_labels(c, phi, turbomap_options(4)).feasible;
      const bool k6 = compute_labels(c, phi, turbomap_options(6)).feasible;
      EXPECT_TRUE(!k4 || k6) << spec.name << " phi=" << phi;
    }
  }
}

TEST(Labeling, IdentityMappingRatioIsAlwaysFeasible) {
  for (const auto& spec : tiny_suite()) {
    const Circuit c = generate_fsm_circuit(spec);
    const int ub = static_cast<int>(std::max<std::int64_t>(1, oracle::circuit_mdr(c).ratio.ceil()));
    EXPECT_TRUE(compute_labels(c, ub, turbomap_options(5)).feasible) << spec.name;
  }
}

TEST(Labeling, DecompositionOnlyAddsFeasibility) {
  for (const auto& spec : tiny_suite()) {
    const Circuit c = generate_fsm_circuit(spec);
    for (int phi = 1; phi <= 4; ++phi) {
      LabelOptions plain = turbomap_options(5);
      LabelOptions syn = plain;
      syn.enable_decomposition = true;
      const bool tm = compute_labels(c, phi, plain).feasible;
      const bool ts = compute_labels(c, phi, syn).feasible;
      EXPECT_TRUE(!tm || ts) << spec.name << " phi=" << phi;
    }
  }
}

TEST(Labeling, ConvergedLabelsSatisfyLocalEquations) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[2]);
  LabelOptions lo = turbomap_options(5);
  int phi = 1;
  LabelResult r = compute_labels(c, phi, lo);
  while (!r.feasible) r = compute_labels(c, ++phi, lo);
  LabelStats stats;
  std::vector<int> labels = r.labels;
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    if (!c.is_gate(v) || c.fanin_edges(v).empty()) continue;
    // Re-running the update at the fixpoint must not change any label.
    EXPECT_EQ(label_update(c, labels, phi, v, lo, stats), r.labels[static_cast<std::size_t>(v)])
        << c.name(v);
  }
}

TEST(Labeling, RealizationsExistAtConvergedLabels) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[4]);
  LabelOptions lo = turbomap_options(5);
  lo.enable_decomposition = true;
  int phi = 1;
  LabelResult r = compute_labels(c, phi, lo);
  while (!r.feasible) r = compute_labels(c, ++phi, lo);
  LabelStats stats;
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    if (!c.is_gate(v) || c.fanin_edges(v).empty()) continue;
    const auto real = realize_node(c, r.labels, phi, v,
                                   r.labels[static_cast<std::size_t>(v)], lo, stats);
    ASSERT_TRUE(real.has_value()) << c.name(v);
    for (const SeqCutNode& in : real->cut) {
      // Height constraint: eff(in) + 1 <= l(v).
      EXPECT_LE(r.labels[static_cast<std::size_t>(in.node)] - phi * in.w + 1,
                r.labels[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(Labeling, MappedMdrNeverExceedsPhiAcrossSuite) {
  for (const auto& spec : tiny_suite()) {
    const Circuit c = generate_fsm_circuit(spec);
    LabelOptions lo = turbomap_options(5);
    lo.enable_decomposition = true;
    int phi = 1;
    LabelResult r = compute_labels(c, phi, lo);
    while (!r.feasible) r = compute_labels(c, ++phi, lo);
    LabelStats stats;
    MapGenOptions mopts;
    const Circuit mapped = generate_sequential_mapping(c, r, phi, lo, mopts, stats).to_circuit();
    EXPECT_LE(oracle::circuit_mdr(mapped).ratio, Rational(phi)) << spec.name;
  }
}

TEST(Labeling, PoLabelsComputedForClockPeriodMode) {
  const Circuit c = ring_circuit(4, 2);
  const LabelResult r = compute_labels(c, 2, turbomap_options(5));
  ASSERT_TRUE(r.feasible);
  EXPECT_GE(r.max_po_label, 1);
}

// Warm starts reuse the converged labels of a higher feasible phi as the
// initial lower bounds of a lower probe; the least fixpoint is unchanged, so
// an engine probing downwards must reproduce every cold one-shot result.
TEST(Labeling, WarmStartedEngineMatchesColdComputation) {
  for (const auto& spec : tiny_suite()) {
    const Circuit c = generate_fsm_circuit(spec);
    LabelOptions lo = turbomap_options(5);
    LabelEngine engine(c, lo);
    for (int phi = 6; phi >= 1; --phi) {  // descending: every probe warm-starts
      const LabelResult warm = engine.compute(phi);
      const LabelResult cold = compute_labels(c, phi, lo);
      ASSERT_EQ(warm.feasible, cold.feasible) << spec.name << " phi=" << phi;
      if (cold.feasible) {
        EXPECT_EQ(warm.labels, cold.labels) << spec.name << " phi=" << phi;
        EXPECT_EQ(warm.max_po_label, cold.max_po_label) << spec.name << " phi=" << phi;
      }
    }
  }
}

// The decomposition update is not monotone, so warm starts could converge on
// a different (still valid) fixpoint than a cold run — which would make
// TurboSYN results depend on probe history, and on tiny_suite()[3] picks
// feedback cuts whose zero-initialized transient never dies out. The engine
// therefore runs decomposition probes cold; a descending scan (the shape
// search_min_ratio uses with a known UB) must reproduce cold results.
TEST(Labeling, DecompositionProbesIgnoreWarmStartsAndMatchCold) {
  for (const auto& spec : tiny_suite()) {
    const Circuit c = generate_fsm_circuit(spec);
    LabelOptions lo = turbomap_options(5);
    lo.enable_decomposition = true;
    LabelEngine engine(c, lo);
    for (int phi = 4; phi >= 2; --phi) {
      const LabelResult warm = engine.compute(phi);
      const LabelResult cold = compute_labels(c, phi, lo);
      ASSERT_EQ(warm.feasible, cold.feasible) << spec.name << " phi=" << phi;
      if (cold.feasible) {
        EXPECT_EQ(warm.labels, cold.labels) << spec.name << " phi=" << phi;
      }
    }
  }
}

// Probing up and down in arbitrary order (as run_turbomap_period's search
// does) must also stay consistent with cold runs.
TEST(Labeling, EngineIsConsistentUnderArbitraryProbeOrder) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[1]);
  LabelOptions lo = turbomap_options(5);
  LabelEngine engine(c, lo);
  for (const int phi : {3, 1, 5, 2, 4, 1, 3}) {
    const LabelResult warm = engine.compute(phi);
    const LabelResult cold = compute_labels(c, phi, lo);
    ASSERT_EQ(warm.feasible, cold.feasible) << "phi=" << phi;
    if (cold.feasible) EXPECT_EQ(warm.labels, cold.labels) << "phi=" << phi;
  }
}

// Scratch arenas only recycle buffers; repeated computations through the same
// engine (hence the same arenas) must be byte-identical.
TEST(Labeling, ScratchReuseIsDeterministic) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[3]);
  LabelOptions lo = turbomap_options(5);
  lo.enable_decomposition = true;
  LabelEngine engine(c, lo);
  const LabelResult first = engine.compute(2);
  const LabelResult second = engine.compute(2);
  ASSERT_EQ(first.feasible, second.feasible);
  EXPECT_EQ(first.labels, second.labels);
}

/// Reuse-free reference for one probe: the engine's own sweep (SCCs in
/// topological order, each swept in zero-weight topological order until no
/// label changes), with every update a plain label_update call, with one
/// decomposition memo across the sweep unless `memo` is false (then each
/// update keeps its own), and without gate records unless `records` is
/// given. Given records keep their certificates and never a network (each
/// update's recorded network is forgotten), and every update checks that
/// its test changed at most one certificate slot. There is no isolation
/// exit and no 6n cap: an SCC stops when it converges, which makes the
/// probe feasible, or once a label exceeds num_gates + 1, which makes it
/// infeasible. That bound is proven for the plain update only (a feasible
/// fixpoint has l(v) <= the delay of a path, at most num_gates; see
/// LabelEngine::process_comp); with decomposition an infeasible verdict
/// here only ends the sweep.
struct ReferenceRun {
  bool feasible = true;
  std::vector<int> labels;
  LabelStats stats;
  // Updates that ran a flow while the gate held both a cut and paths.
  std::int64_t flows_with_both_slots = 0;
};

/// A gate record's certificates, copied out.
struct Slots {
  std::optional<std::vector<SeqCutNode>> cut;
  std::optional<std::pair<std::vector<SeqCutNode>, std::vector<std::int32_t>>> paths;
};

Slots slots_of(const GateRecord& record) {
  Slots slots;
  if (const auto cut = record.cut()) slots.cut.emplace(cut->begin(), cut->end());
  if (const auto paths = record.paths()) {
    slots.paths.emplace(std::vector<SeqCutNode>(paths->copies.begin(), paths->copies.end()),
                        std::vector<std::int32_t>(paths->ends.begin(), paths->ends.end()));
  }
  return slots;
}

ReferenceRun reference_fixpoint(const Circuit& c, int phi, const LabelOptions& lo,
                                std::vector<GateRecord>* records = nullptr, bool memo = true) {
  const SccDecomposition scc = strongly_connected_components(c);
  const std::vector<NodeId> order = combinational_order(c);
  std::vector<int> pos(static_cast<std::size_t>(c.num_nodes()), 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  ReferenceRun ref;
  ref.labels.assign(static_cast<std::size_t>(c.num_nodes()), 0);
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    if (c.is_gate(v) && !c.fanin_edges(v).empty()) ref.labels[static_cast<std::size_t>(v)] = 1;
  }
  const std::int64_t bound = std::int64_t{c.num_gates()} + 1;
  DecompCache cache;
  for (const std::vector<NodeId>& comp : scc.components) {
    std::vector<NodeId> gates;
    for (const NodeId v : comp) {
      if (c.is_gate(v) && !c.fanin_edges(v).empty()) gates.push_back(v);
    }
    std::sort(gates.begin(), gates.end(), [&](NodeId a, NodeId b) {
      return pos[static_cast<std::size_t>(a)] < pos[static_cast<std::size_t>(b)];
    });
    for (bool changed = !gates.empty(); changed;) {
      changed = false;
      for (const NodeId v : gates) {
        GateRecord* record = records != nullptr ? &(*records)[static_cast<std::size_t>(v)] : nullptr;
        const Slots before = record != nullptr ? slots_of(*record) : Slots{};
        const std::int64_t flows_before = ref.stats.cut_tests;
        const int updated = label_update(c, ref.labels, phi, v, lo, ref.stats,
                                         memo ? &cache : nullptr, nullptr, record);
        if (record != nullptr) {
          record->forget_network();
          // A passed test writes the cut slot, a failed one the paths slot;
          // neither touches the other.
          const Slots after = slots_of(*record);
          EXPECT_TRUE(after.cut == before.cut || after.paths == before.paths) << c.name(v);
          if (before.cut && before.paths && ref.stats.cut_tests > flows_before) {
            ++ref.flows_with_both_slots;
          }
        }
        if (updated > ref.labels[static_cast<std::size_t>(v)]) {
          ref.labels[static_cast<std::size_t>(v)] = updated;
          changed = true;
        }
      }
      for (const NodeId v : gates) {
        if (ref.labels[static_cast<std::size_t>(v)] > bound) {
          ref.feasible = false;
          return ref;
        }
      }
    }
  }
  return ref;
}

// The engine settles a gate's K-cut test from its gate record: from the
// last flow-found cut when that cut still separates E_v, from the last
// failed test's flow paths when they are still a flow in E_v, and from the
// last network's verdict when no copy changed its allowed flag. The
// verdicts must be exactly the flow's, so converged labels equal the
// certificate-free sweep, every skipped test is counted as a reuse, a
// refutation or a network reuse, and both certificates do get used. The
// networks absorb every stored-cut reuse on some circuits, so the
// certificates' use is counted on a sweep with records that keep no
// network. That sweep also checks that a test leaves the certificate slot
// it does not write alone, and flows run on gates that hold both a cut and
// paths. With decomposition the stored paths also seed the flows they do
// not settle, so the engine finds fewer augmenting paths than the
// reference sweep.
TEST(Labeling, CutReuseMatchesReuseFreeFixpoint) {
  std::vector<BenchmarkSpec> specs = tiny_suite();
  for (const BenchmarkSpec& spec : table1_suite()) {
    if (spec.num_gates <= 200) specs.push_back(spec);
  }
  std::int64_t flows_with_both_slots = 0;  // only TurboSYN's sweeps have them
  for (const bool decomposition : {false, true}) {
    std::int64_t refutations = 0;
    std::int64_t engine_paths = 0;
    std::int64_t reference_paths = 0;
    for (const BenchmarkSpec& spec : specs) {
      const Circuit c = generate_fsm_circuit(spec);
      LabelOptions lo = turbomap_options(5);
      lo.enable_decomposition = decomposition;
      LabelEngine engine(c, lo);
      std::vector<GateRecord> records(static_cast<std::size_t>(c.num_nodes()));
      std::int64_t reuses = 0;
      int feasible_probes = 0;
      // Ascending probes start cold in both modes, so each feasible probe's
      // counters line up with the reference sweep's.
      for (int phi = 1; feasible_probes < 2; ++phi) {
        const LabelResult r = engine.compute(phi);
        refutations += r.stats.cut_refutations;
        if (!r.feasible) continue;
        ++feasible_probes;
        const ReferenceRun ref = reference_fixpoint(c, phi, lo);
        const ReferenceRun stored = reference_fixpoint(c, phi, lo, &records);
        ASSERT_TRUE(ref.feasible && stored.feasible);
        reuses += stored.stats.cut_reuses;
        flows_with_both_slots += stored.flows_with_both_slots;
        const std::string at = spec.name + (decomposition ? " turbosyn" : " turbomap") +
                               " phi=" + std::to_string(phi);
        for (NodeId v = 0; v < c.num_nodes(); ++v) {
          if (!c.is_gate(v) || c.fanin_edges(v).empty()) continue;
          ASSERT_EQ(r.labels[static_cast<std::size_t>(v)], ref.labels[static_cast<std::size_t>(v)])
              << at << " " << c.name(v);
        }
        EXPECT_EQ(stored.labels, ref.labels) << at;
        EXPECT_EQ(r.stats.node_updates, ref.stats.node_updates) << at;
        EXPECT_EQ(r.stats.cut_tests + r.stats.cut_reuses + r.stats.cut_refutations +
                      r.stats.network_reuses,
                  ref.stats.cut_tests)
            << at;
        EXPECT_EQ(stored.stats.cut_tests + stored.stats.cut_reuses +
                      stored.stats.cut_refutations,
                  ref.stats.cut_tests)
            << at;
        EXPECT_EQ(ref.stats.cut_reuses, 0) << at;
        EXPECT_EQ(ref.stats.cut_refutations, 0) << at;
        EXPECT_EQ(ref.stats.network_reuses, 0) << at;
        engine_paths += r.stats.flow_augmentations;
        reference_paths += ref.stats.flow_augmentations;
      }
      EXPECT_GT(reuses, 0) << spec.name << (decomposition ? " turbosyn" : " turbomap");
    }
    EXPECT_GT(refutations, 0) << (decomposition ? "turbosyn" : "turbomap");
    if (decomposition) EXPECT_LT(engine_paths, reference_paths);
  }
  EXPECT_GT(flows_with_both_slots, 0);
}

// A recorded network settles only updates whose verdict the record's
// stored cut or stored flow paths would also settle without a flow, so an
// engine with network records runs the same flows as one without: at every probe, ascending or
// descending in phi, both reach the same feasibility, status and labels,
// with the same cut tests, augmenting paths and decomposition attempts, and
// each network reuse stands for one stored-cut reuse or refutation.
TEST(Labeling, NetworkRecordsKeepEveryProbeAndItsFlows) {
  std::vector<BenchmarkSpec> specs = tiny_suite();
  for (const BenchmarkSpec& spec : table1_suite()) {
    if (spec.num_gates <= 200) specs.push_back(spec);
  }
  for (const bool decomposition : {false, true}) {
    std::int64_t network_reuses = 0;
    for (const BenchmarkSpec& spec : specs) {
      const Circuit c = generate_fsm_circuit(spec);
      LabelOptions lo = turbomap_options(5);
      lo.enable_decomposition = decomposition;
      // Returns the probe's feasibility with records.
      const auto compare = [&](LabelEngine& with, LabelEngine& without, int phi,
                               const char* order) {
        const LabelResult a = with.compute(phi);
        const LabelResult b = without.compute(phi);
        const std::string at = spec.name + (decomposition ? " turbosyn" : " turbomap") +
                               " phi=" + std::to_string(phi) + " " + order;
        EXPECT_EQ(a.feasible, b.feasible) << at;
        EXPECT_EQ(a.status, b.status) << at;
        EXPECT_EQ(a.labels, b.labels) << at;
        EXPECT_EQ(a.stats.node_updates, b.stats.node_updates) << at;
        EXPECT_EQ(a.stats.cut_tests, b.stats.cut_tests) << at;
        EXPECT_EQ(a.stats.flow_augmentations, b.stats.flow_augmentations) << at;
        EXPECT_EQ(a.stats.decomp_attempts, b.stats.decomp_attempts) << at;
        EXPECT_EQ(a.stats.cut_reuses + a.stats.cut_refutations + a.stats.network_reuses,
                  b.stats.cut_reuses + b.stats.cut_refutations)
            << at;
        EXPECT_EQ(b.stats.network_reuses, 0) << at;
        network_reuses += a.stats.network_reuses;
        return a.feasible;
      };
      // Ascending from 1 to one past the first feasible phi, then
      // descending from two above it to one below it.
      int first_feasible = 0;
      {
        LabelEngine with(c, lo);
        LabelEngine without(c, lo, nullptr, /*network_records=*/false);
        for (int phi = 1; first_feasible == 0 || phi <= first_feasible + 1; ++phi) {
          if (compare(with, without, phi, "ascending") && first_feasible == 0) {
            first_feasible = phi;
          }
        }
      }
      LabelEngine with(c, lo);
      LabelEngine without(c, lo, nullptr, /*network_records=*/false);
      for (int phi = first_feasible + 2; phi >= std::max(1, first_feasible - 1); --phi) {
        compare(with, without, phi, "descending");
      }
    }
    if (!decomposition) EXPECT_GT(network_reuses, 0);
  }
}

// A memo keeps one function per (gate, cut). A sweep repeated at the same
// labels over a filled memo extracts no function, makes as many attempts as
// the first sweep and reaches the same labels.
TEST(Labeling, DecompCacheStoresEachGateCutOnce) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[2]);
  LabelOptions lo = turbomap_options(5);
  lo.enable_decomposition = true;
  const ReferenceRun ref = reference_fixpoint(c, 2, lo);
  DecompCache cache;
  const auto sweep = [&](LabelStats& stats) {
    std::vector<int> updated;
    for (NodeId v = 0; v < c.num_nodes(); ++v) {
      if (!c.is_gate(v) || c.fanin_edges(v).empty()) continue;
      updated.push_back(label_update(c, ref.labels, 2, v, lo, stats, &cache));
    }
    return updated;
  };
  LabelStats first;
  LabelStats second;
  const std::vector<int> first_labels = sweep(first);
  const std::vector<int> second_labels = sweep(second);
  EXPECT_GT(first.decomp_attempts, 0);
  EXPECT_EQ(first.cut_functions, static_cast<std::int64_t>(cache.entries.size()));
  EXPECT_EQ(second.cut_functions, 0);
  EXPECT_EQ(second.decomp_attempts, first.decomp_attempts);
  EXPECT_EQ(second.decomp_successes, first.decomp_successes);
  EXPECT_EQ(second_labels, first_labels);
  for (const auto& [key, function] : cache.entries) {
    EXPECT_LE(function.support.size(), key.second.size());
  }
}

// An engine extracts each (gate, cut) function once across all its probes,
// far fewer times than it attempts decompositions, and the memo changes no
// label: a memo-free sweep, which extracts on every attempt, converges to
// the same labels with exactly the memoized sweep's attempts.
TEST(Labeling, DecompCacheExtractsOnceAndKeepsLabels) {
  std::int64_t attempts = 0;
  std::int64_t extracted = 0;
  for (const BenchmarkSpec& spec : tiny_suite()) {
    const Circuit c = generate_fsm_circuit(spec);
    LabelOptions lo = turbomap_options(5);
    lo.enable_decomposition = true;
    LabelEngine engine(c, lo);
    LabelStats total;
    int phi = 1;
    for (;; ++phi) {
      const LabelResult r = engine.compute(phi);
      total.accumulate(r.stats);
      if (r.feasible) break;
    }
    EXPECT_EQ(total.cut_functions, static_cast<std::int64_t>(engine.decomp_cache().entries.size()))
        << spec.name;
    attempts += total.decomp_attempts;
    extracted += total.cut_functions;

    const ReferenceRun with = reference_fixpoint(c, phi, lo);
    const ReferenceRun without = reference_fixpoint(c, phi, lo, nullptr, /*memo=*/false);
    const std::string at = spec.name + " phi=" + std::to_string(phi);
    EXPECT_EQ(with.labels, without.labels) << at;
    EXPECT_EQ(without.stats.cut_functions, without.stats.decomp_attempts) << at;
    EXPECT_EQ(without.stats.decomp_attempts, with.stats.decomp_attempts) << at;
    EXPECT_LE(with.stats.cut_functions, with.stats.decomp_attempts) << at;
  }
  EXPECT_GT(attempts, 0);
  EXPECT_LT(2 * extracted, attempts);
}

// A flow-path certificate of more than kCopiesPerPath * (K + 1) copies is
// not stored: keeping one leaves the gate with no paths, so its next test
// runs the flow and gives the label of a test without stored paths. A
// certificate of exactly that many copies, and a later valid one, are kept.
TEST(Labeling, GateRecordPathCapStoresNothingAndKeepsLabels) {
  for (const bool decomposition : {false, true}) {
    int checked = 0;
    for (const BenchmarkSpec& spec : tiny_suite()) {
      const Circuit c = generate_fsm_circuit(spec);
      LabelOptions lo = turbomap_options(5);
      lo.enable_decomposition = decomposition;
      const std::string at = spec.name + (decomposition ? " turbosyn" : " turbomap");
      const std::size_t cap = GateRecord::kCopiesPerPath * static_cast<std::size_t>(lo.k + 1);
      LabelEngine engine(c, lo);
      int phi = 1;
      while (!engine.compute(phi).feasible) ++phi;  // the reference sweep needs a fixpoint
      std::vector<GateRecord> records(static_cast<std::size_t>(c.num_nodes()));
      const ReferenceRun ref = reference_fixpoint(c, phi, lo, &records);
      for (NodeId v = 0; v < c.num_nodes(); ++v) {
        const std::optional<FlowPaths> kept = records[static_cast<std::size_t>(v)].paths();
        if (!kept) continue;
        const std::vector<SeqCutNode> copies(kept->copies.begin(), kept->copies.end());
        const std::vector<std::int32_t> ends(kept->ends.begin(), kept->ends.end());
        // K + 1 made-up paths of n copies in all.
        const auto made_up = [&](std::size_t n) {
          std::vector<std::int32_t> path_ends;
          for (int p = 1; p <= lo.k + 1; ++p) {
            path_ends.push_back(static_cast<std::int32_t>(n * p / (lo.k + 1)));
          }
          return std::pair(std::vector<SeqCutNode>(n, SeqCutNode{v, 0}), path_ends);
        };
        // A record holding these paths only, so no cut or network settles
        // the test below.
        GateRecord record;
        const auto [at_cap, at_cap_ends] = made_up(cap);
        record.keep_paths(FlowPaths{at_cap, at_cap_ends}, lo.k);
        ASSERT_TRUE(record.paths().has_value()) << at << " " << c.name(v);
        EXPECT_EQ(record.paths()->copies.size(), cap) << at << " " << c.name(v);

        const auto [over_cap, over_cap_ends] = made_up(cap + 1);
        record.keep_paths(FlowPaths{over_cap, over_cap_ends}, lo.k);
        EXPECT_FALSE(record.paths().has_value()) << at << " " << c.name(v);
        LabelStats with_record;
        LabelStats without;
        EXPECT_EQ(label_update(c, ref.labels, phi, v, lo, with_record, nullptr, nullptr, &record),
                  label_update(c, ref.labels, phi, v, lo, without))
            << at << " " << c.name(v);
        EXPECT_EQ(with_record.cut_refutations, 0) << at << " " << c.name(v);
        EXPECT_EQ(with_record.cut_tests, without.cut_tests) << at << " " << c.name(v);

        record.keep_paths(FlowPaths{copies, ends}, lo.k);
        const std::optional<FlowPaths> again = record.paths();
        ASSERT_TRUE(again.has_value()) << at << " " << c.name(v);
        EXPECT_TRUE(std::ranges::equal(again->copies, copies)) << at << " " << c.name(v);
        EXPECT_TRUE(std::ranges::equal(again->ends, ends)) << at << " " << c.name(v);
        ++checked;
      }
    }
    EXPECT_GT(checked, 0) << (decomposition ? "turbosyn" : "turbomap");
  }
}

// The engine's infeasible verdicts come from its shortcuts: network
// records, stored cuts and flow paths, warm starts, PLD isolation and the
// 6n cap. The reference sweep has none of them and stops only at the
// num_gates + 1 bound, so in plain mode the two must agree on feasibility
// at the engine's minimum phi and one below it, with the engine probing
// ascending (cold starts, certificates from lower phi) or descending (warm
// starts and certificates from higher phi).
TEST(Labeling, PlainRejectionsMatchTheReferenceSweep) {
  std::vector<BenchmarkSpec> specs = tiny_suite();
  for (const BenchmarkSpec& spec : table1_suite()) {
    if (spec.num_gates <= 200) specs.push_back(spec);
  }
  int rejections = 0;
  for (const BenchmarkSpec& spec : specs) {
    const Circuit c = generate_fsm_circuit(spec);
    const LabelOptions lo = turbomap_options(5);
    LabelEngine ascending(c, lo);
    int min_phi = 1;
    while (!ascending.compute(min_phi).feasible) ++min_phi;
    LabelEngine descending(c, lo);
    for (int phi = min_phi + 2; phi >= std::max(1, min_phi - 1); --phi) {
      const LabelResult r = descending.compute(phi);
      if (phi > min_phi) continue;
      const std::string at = spec.name + " phi=" + std::to_string(phi);
      const ReferenceRun ref = reference_fixpoint(c, phi, lo);
      EXPECT_EQ(r.feasible, phi == min_phi) << at;
      EXPECT_EQ(ref.feasible, phi == min_phi) << at;
      if (!ref.feasible) {
        ++rejections;
        continue;
      }
      for (NodeId v = 0; v < c.num_nodes(); ++v) {
        if (!c.is_gate(v) || c.fanin_edges(v).empty()) continue;
        EXPECT_EQ(r.labels[static_cast<std::size_t>(v)], ref.labels[static_cast<std::size_t>(v)])
            << at << " " << c.name(v);
      }
    }
  }
  EXPECT_GT(rejections, 0);
}

TEST(Labeling, RejectsUnboundedCircuit) {
  Circuit c;
  std::vector<Circuit::FaninSpec> wide;
  for (int i = 0; i < 6; ++i) wide.push_back({c.add_pi("i" + std::to_string(i)), 0});
  const NodeId g = c.add_gate("g", tt_and(6), wide);
  c.add_po("$po:o", {g, 0});
  EXPECT_THROW((void)compute_labels(c, 2, turbomap_options(4)), Error);
}

}  // namespace
}  // namespace turbosyn
