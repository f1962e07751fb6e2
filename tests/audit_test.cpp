#include "verify/audit.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "base/check.hpp"
#include "core/flows.hpp"
#include "netlist/blif.hpp"
#include "netlist/gates.hpp"
#include "oracle.hpp"
#include "retime/pipeline.hpp"
#include "retime/retiming.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"

namespace turbosyn {
namespace {

FlowOptions audited_options() {
  FlowOptions opt;
  opt.collect_artifacts = true;
  return opt;
}

// ---- Clean flows must audit green. ----

TEST(AuditFlow, CleanTurboSynPassesEveryStage) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[0]);
  const FlowOptions opt = audited_options();
  const FlowResult ts = run_turbosyn(c, opt);
  const AuditReport report = audit_flow(c, ts, opt);
  EXPECT_TRUE(report.passed()) << report.breakdown();
  for (const AuditCheck& check : report.checks) {
    if (check.name == "portfolio") {
      // Standalone run: there is no race table to re-verify.
      EXPECT_EQ(check.status, AuditStatus::kSkipped) << check.detail;
      continue;
    }
    EXPECT_EQ(check.status, AuditStatus::kPass)
        << check.name << ": " << check.detail;
  }
}

TEST(AuditFlow, CleanTurboMapPeriodPassesEveryStage) {
  // Under default options (pipelining on) the clock-period engine keeps its
  // mapped network un-retimed like every other flow, so the equivalence
  // check holds from cycle 0.
  std::vector<BenchmarkSpec> specs = tiny_suite();
  for (const BenchmarkSpec& spec : table1_suite()) {
    if (spec.num_gates <= 200) specs.push_back(spec);
  }
  const FlowOptions opt = audited_options();
  for (const BenchmarkSpec& spec : specs) {
    const Circuit c = generate_fsm_circuit(spec);
    const FlowResult tm = run_turbomap_period(c, opt);
    const AuditReport report = audit_flow(c, tm, opt);
    EXPECT_TRUE(report.passed()) << spec.name << '\n' << report.breakdown();
  }
}

TEST(AuditFlow, FlowSynSSkipsLabelStagesButPasses) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[0]);
  const FlowOptions opt = audited_options();
  const FlowResult fs = run_flowsyn_s(c, opt);
  const AuditReport report = audit_flow(c, fs, opt);
  EXPECT_TRUE(report.passed()) << report.breakdown();
  int skips = 0;
  for (const AuditCheck& check : report.checks) {
    if (check.status == AuditStatus::kSkipped) ++skips;
  }
  // labels + cuts + probes (no label search) + portfolio (standalone run)
  EXPECT_EQ(skips, 4);
}

TEST(AuditFlow, ReportAndCliHelpersWork) {
  const Circuit c = ring_circuit(4, 2);
  const FlowOptions opt = audited_options();
  const FlowResult ts = run_turbosyn(c, opt);
  std::ostringstream os;
  EXPECT_TRUE(audit_and_report(c, ts, opt, "ring", os));
  EXPECT_NE(os.str().find("audit ring: PASS"), std::string::npos);
  EXPECT_NE(os.str().find("[PASS] mdr"), std::string::npos);

  const char* with_flag[] = {const_cast<char*>("prog"), const_cast<char*>("--audit")};
  const char* without[] = {const_cast<char*>("prog"), const_cast<char*>("--quick")};
  EXPECT_TRUE(audit_flag_from_cli(2, const_cast<char**>(with_flag)));
  EXPECT_FALSE(audit_flag_from_cli(2, const_cast<char**>(without)));
}

// ---- Seeded violations: every tampered artifact must be caught. ----

TEST(AuditLabels, CatchesTamperedGateLabel) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[0]);
  const FlowOptions opt = audited_options();
  const FlowResult tm = run_turbomap(c, opt);
  ASSERT_TRUE(tm.artifacts.valid);
  EXPECT_FALSE(audit_labels(c, tm.artifacts.labels.labels, tm.artifacts.phi).has_value());

  std::vector<int> broken = tm.artifacts.labels.labels;
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    if (c.is_gate(v) && !c.fanin_edges(v).empty()) {
      broken[static_cast<std::size_t>(v)] += 10;
      break;
    }
  }
  const auto failure = audit_labels(c, broken, tm.artifacts.phi);
  ASSERT_TRUE(failure.has_value());
  EXPECT_NE(failure->find("outside"), std::string::npos) << *failure;
}

TEST(AuditLabels, CatchesNonzeroSourceLabel) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[0]);
  const FlowOptions opt = audited_options();
  const FlowResult tm = run_turbomap(c, opt);
  ASSERT_TRUE(tm.artifacts.valid);
  std::vector<int> broken = tm.artifacts.labels.labels;
  broken[static_cast<std::size_t>(c.pis()[0])] = 1;
  const auto failure = audit_labels(c, broken, tm.artifacts.phi);
  ASSERT_TRUE(failure.has_value());
  EXPECT_NE(failure->find("source"), std::string::npos) << *failure;
}

TEST(AuditMappingRecord, CatchesDroppedCutElement) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[1]);
  const FlowOptions opt = audited_options();
  const FlowResult tm = run_turbomap(c, opt);
  ASSERT_TRUE(tm.artifacts.valid);
  const auto& art = tm.artifacts;
  for (const MappingRecord& rec : art.records) {
    ASSERT_FALSE(
        audit_mapping_record(c, art.labels.labels, art.phi, opt.k, rec).has_value());
  }
  // Drop one cut element from a multi-input record: the LUT arity no longer
  // matches the cut, or the cone function changes — either way it must fail.
  for (const MappingRecord& rec : art.records) {
    if (rec.real.cut.size() < 2) continue;
    MappingRecord broken = rec;
    broken.real.cut.pop_back();
    EXPECT_TRUE(
        audit_mapping_record(c, art.labels.labels, art.phi, opt.k, broken).has_value());
    return;
  }
  GTEST_SKIP() << "no multi-input record in this mapping";
}

TEST(AuditMappingRecord, CatchesShiftedCutRegisterCount) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[1]);
  const FlowOptions opt = audited_options();
  const FlowResult tm = run_turbomap(c, opt);
  ASSERT_TRUE(tm.artifacts.valid);
  const auto& art = tm.artifacts;
  // Bump one cut input's register count: the cut no longer covers the real
  // fanin frontier (coverage/cone failure) or the height bound breaks.
  for (const MappingRecord& rec : art.records) {
    MappingRecord broken = rec;
    broken.real.cut[0].w += 1;
    if (audit_mapping_record(c, art.labels.labels, art.phi, opt.k, broken).has_value()) {
      return;  // caught, as required
    }
  }
  FAIL() << "no shifted-register cut was caught by the auditor";
}

TEST(AuditMappingRecord, CatchesZeroStateUnsafeInteriorCopy) {
  // x -> g1 (NOT) -> [1 FF] -> g2 (OR with x). A cone rooted at g2 whose cut
  // digs through the registered inverter recomputes g1 for cycle 0 as
  // NOT(0) = 1, but the real register powered up holding 0 — the auditor
  // must reject such an interior copy outright.
  Circuit c;
  const NodeId x = c.add_pi("x");
  const Circuit::FaninSpec f1[1] = {{x, 0}};
  const NodeId g1 = c.add_gate("g1", tt_not(), f1);
  const Circuit::FaninSpec f2[2] = {{g1, 1}, {x, 0}};
  const NodeId g2 = c.add_gate("g2", tt_or(2), f2);
  c.add_po("$po:o", {g2, 0});
  c.validate();

  std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 0);
  labels[static_cast<std::size_t>(g1)] = 1;
  labels[static_cast<std::size_t>(g2)] = 1;
  MappingRecord rec;
  rec.root = g2;
  rec.height = 2;
  rec.real.cut = {SeqCutNode{x, 0}, SeqCutNode{x, 1}};
  // g2 = OR(NOT(x@1), x@0) over cut variables (x@0, x@1).
  rec.real.func = TruthTable::var(2, 0) | ~TruthTable::var(2, 1);
  const auto failure = audit_mapping_record(c, labels, /*phi=*/1, /*k=*/4, rec);
  ASSERT_TRUE(failure.has_value());
  EXPECT_NE(failure->find("zero-state-unsafe"), std::string::npos) << *failure;

  // The safe realization of the same root — reading the inverter through the
  // register as a cut input — passes.
  MappingRecord safe;
  safe.root = g2;
  safe.height = 2;
  safe.real.cut = {SeqCutNode{g1, 1}, SeqCutNode{x, 0}};
  safe.real.func = TruthTable::var(2, 0) | TruthTable::var(2, 1);
  EXPECT_FALSE(audit_mapping_record(c, labels, /*phi=*/1, /*k=*/4, safe).has_value());
}

TEST(AuditRetiming, CatchesNegativeEdgeAndPinnedLag) {
  const Circuit c = ring_circuit(3, 1);  // two zero-weight gate-to-gate edges
  std::vector<int> r(static_cast<std::size_t>(c.num_nodes()), 0);
  const std::vector<NodeId> pinned(c.pis().begin(), c.pis().end());
  EXPECT_FALSE(audit_retiming_legality(c, r, pinned).has_value());

  // Lag the source of a zero-weight gate-to-gate edge: that edge goes
  // negative under w(e) + r(to) - r(from).
  for (EdgeId e = 0; e < c.num_edges(); ++e) {
    const Circuit::Edge& edge = c.edge(e);
    if (edge.weight == 0 && c.is_gate(edge.from) && c.is_gate(edge.to)) {
      r[static_cast<std::size_t>(edge.from)] = 1;
      break;
    }
  }
  const auto neg = audit_retiming_legality(c, r, pinned);
  ASSERT_TRUE(neg.has_value());
  EXPECT_NE(neg->find("negative"), std::string::npos) << *neg;

  std::fill(r.begin(), r.end(), 0);
  r[static_cast<std::size_t>(c.pis()[0])] = 1;
  const auto pin = audit_retiming_legality(c, r, pinned);
  ASSERT_TRUE(pin.has_value());
  EXPECT_NE(pin->find("pinned"), std::string::npos) << *pin;
}

TEST(AuditMdr, CatchesPhiViolatingLoop) {
  // 3-gate ring with one register: MDR = 3/1. Certifying phi = 2 is a lie.
  const Circuit ring = ring_circuit(3, 1);
  ASSERT_EQ(oracle::circuit_mdr(ring).ratio, Rational(3));
  EXPECT_FALSE(audit_mdr(ring, 3, Rational(3)).has_value());

  const auto phi_violation = audit_mdr(ring, 2, Rational(3));
  ASSERT_TRUE(phi_violation.has_value());
  EXPECT_NE(phi_violation->find("exceeds"), std::string::npos) << *phi_violation;

  // Claims on either side of the true ratio have no certificate.
  const auto too_low = audit_mdr(ring, 3, Rational(2));
  ASSERT_TRUE(too_low.has_value());
  EXPECT_NE(too_low->find("violates the potentials"), std::string::npos) << *too_low;
  const auto too_high = audit_mdr(ring, 4, Rational(7, 2));
  ASSERT_TRUE(too_high.has_value());
  EXPECT_NE(too_high->find("no cycle attains"), std::string::npos) << *too_high;
}

TEST(AuditPeriod, CatchesPeriodBelowMdrBound) {
  const Circuit ring = ring_circuit(3, 1);  // MDR 3: period 1 is impossible
  const auto failure = audit_period(ring, Rational(3), 1, 0, std::vector<int>{});
  ASSERT_TRUE(failure.has_value());
  EXPECT_NE(failure->find("below the MDR lower bound"), std::string::npos) << *failure;
  // Period 3 with no pipelining is achievable (retiming spreads the ring).
  const PipelineResult p = retime_without_pipelining(ring, Rational(3));
  ASSERT_EQ(p.period, 3);
  EXPECT_FALSE(audit_period(ring, Rational(3), 3, 0, p.retiming).has_value());
}

/// One lag less on every node but the PIs and POs: `lags` pipelined by one
/// stage more. Legal, with no larger period.
std::vector<int> one_stage_deeper(const Circuit& c, std::vector<int> lags) {
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    if (!c.is_pi(v) && !c.is_po(v)) --lags[static_cast<std::size_t>(v)];
  }
  return lags;
}

TEST(AuditPeriod, ChecksTheWitnessAndMinimality) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[2]);
  const Rational mdr = oracle::circuit_mdr(c).ratio;
  const PipelineResult p = pipeline_and_retime(c, mdr);
  ASSERT_GT(p.stages, 0);
  EXPECT_FALSE(audit_period(c, mdr, p.period, p.stages, p.retiming).has_value());

  // One stage more than the minimum is reachable but not minimal.
  const std::vector<int> deeper = one_stage_deeper(c, p.retiming);
  const auto extra = audit_period(c, mdr, p.period, p.stages + 1, deeper);
  ASSERT_TRUE(extra.has_value());
  EXPECT_NE(extra->find("is not the minimum"), std::string::npos) << *extra;

  // Without pipelining, a period above the minimum is reachable but not
  // minimal either.
  const PipelineResult plain = retime_without_pipelining(c, mdr);
  EXPECT_FALSE(audit_period(c, mdr, plain.period, 0, plain.retiming).has_value());
  const auto slack = audit_period(c, mdr, plain.period + 1, 0, plain.retiming);
  ASSERT_TRUE(slack.has_value());
  EXPECT_NE(slack->find("is not the minimum"), std::string::npos) << *slack;

  // A witness that drives an edge negative is illegal.
  std::vector<int> illegal = p.retiming;
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    if (c.is_gate(v) && c.delay(v) > 0) {
      illegal[static_cast<std::size_t>(v)] += 1000;
      break;
    }
  }
  const auto bad_lag = audit_period(c, mdr, p.period, p.stages, illegal);
  ASSERT_TRUE(bad_lag.has_value());
  EXPECT_NE(bad_lag->find("negative weight"), std::string::npos) << *bad_lag;

  // A legal witness that leaves the period above the claim.
  Circuit piped = c;
  pipeline_inputs(piped, p.stages);
  pipeline_outputs(piped, p.stages);
  ASSERT_GT(circuit_clock_period(piped), p.period);
  const std::vector<int> zero(static_cast<std::size_t>(c.num_nodes()), 0);
  const auto slow = audit_period(c, mdr, p.period, p.stages, zero);
  ASSERT_TRUE(slow.has_value());
  EXPECT_NE(slow->find("above the claimed"), std::string::npos) << *slow;
}

// ---- Each certificate mutation fails its check. ----

TEST(AuditCertificate, DroppedCycleEdgeFails) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[2]);
  const Rational mdr = oracle::circuit_mdr(c).ratio;
  MdrCertificate cert = mdr_certificate(c, mdr);
  ASSERT_FALSE(cert.cycle.empty());
  EXPECT_FALSE(check_mdr_certificate(c, mdr, cert).has_value());
  cert.cycle.erase(cert.cycle.begin());
  const auto failure = check_mdr_certificate(c, mdr, cert);
  ASSERT_TRUE(failure.has_value());
  EXPECT_NE(failure->find("cycle"), std::string::npos) << *failure;
}

TEST(AuditCertificate, ShiftedPotentialFails) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[2]);
  const Rational mdr = oracle::circuit_mdr(c).ratio;
  const MdrCertificate cert = mdr_certificate(c, mdr);
  ASSERT_FALSE(cert.cycle.empty());
  // Every edge of the critical cycle is tight, so moving one of its nodes'
  // potential either way breaks an edge of the cycle.
  const NodeId on_cycle = c.edge(cert.cycle[0]).to;
  for (const int shift : {1, -1}) {
    MdrCertificate shifted = cert;
    shifted.potential[static_cast<std::size_t>(on_cycle)] += shift;
    const auto failure = check_mdr_certificate(c, mdr, shifted);
    ASSERT_TRUE(failure.has_value()) << shift;
    EXPECT_NE(failure->find("violates the potentials"), std::string::npos) << *failure;
  }
}

TEST(AuditCertificate, ShortenedPathFails) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[2]);
  const PipelineResult p = pipeline_and_retime(c, oracle::circuit_mdr(c).ratio);
  ASSERT_GT(p.stages, 0);
  const std::vector<EdgeId> path = slowest_io_path(c, p.period);
  ASSERT_FALSE(path.empty());
  EXPECT_FALSE(check_slow_path(c, path, p.period, p.stages - 1).has_value());
  for (const bool drop_first : {true, false}) {
    std::vector<EdgeId> shorter = path;
    shorter.erase(drop_first ? shorter.begin() : shorter.end() - 1);
    const auto failure = check_slow_path(c, shorter, p.period, p.stages - 1);
    ASSERT_TRUE(failure.has_value()) << drop_first;
    EXPECT_NE(failure->find("does not run from a PI to a PO"), std::string::npos) << *failure;
  }
}

TEST(AuditCertificate, OffByOneWitnessLagFails) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[2]);
  const Rational mdr = oracle::circuit_mdr(c).ratio;
  const PipelineResult p = pipeline_and_retime(c, mdr);
  ASSERT_FALSE(audit_period(c, mdr, p.period, p.stages, p.retiming).has_value());
  // Raise the lag at the tail of an edge the witness leaves register-free:
  // that edge goes negative.
  Circuit retimed = c;
  pipeline_inputs(retimed, p.stages);
  pipeline_outputs(retimed, p.stages);
  apply_retiming(retimed, p.retiming);
  EdgeId tight = kNoEdge;
  for (EdgeId e = 0; e < retimed.num_edges() && tight == kNoEdge; ++e) {
    if (retimed.edge(e).weight == 0 && c.is_gate(retimed.edge(e).from)) tight = e;
  }
  ASSERT_NE(tight, kNoEdge);
  std::vector<int> off = p.retiming;
  ++off[static_cast<std::size_t>(c.edge(tight).from)];
  const auto failure = audit_period(c, mdr, p.period, p.stages, off);
  ASSERT_TRUE(failure.has_value());
  EXPECT_NE(failure->find("negative weight"), std::string::npos) << *failure;
}

TEST(AuditFlow, CatchesInequivalentMappedNetwork) {
  const Circuit good = read_blif_string(pattern_fsm_blif());
  // The same FSM with the output gate broken (z drops the x term).
  const Circuit bad = read_blif_string(R"(.model pattern1011
.inputs x
.outputs z
.latch ns0 s0 0
.latch ns1 s1 0
.names x ns0
1 1
.names x s0 s1 ns1
010 1
101 1
011 1
.names x s0 s1 z
011 1
.end
)");
  FlowResult forged;
  forged.mapped = bad;
  forged.exact_mdr = oracle::circuit_mdr(bad).ratio;
  forged.phi = 10;  // generous: keep the mdr stage green, isolate equivalence
  forged.period = 0;  // skip the period stage; equivalence is the target
  const AuditReport report = audit_flow(good, forged, FlowOptions{});
  EXPECT_FALSE(report.passed());
  bool equivalence_failed = false;
  for (const AuditCheck& check : report.checks) {
    if (check.name == "equivalence") {
      equivalence_failed = check.status == AuditStatus::kFail;
    }
  }
  EXPECT_TRUE(equivalence_failed) << report.breakdown();
}

TEST(AuditFlow, CatchesInterfaceMismatch) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[0]);
  const FlowOptions opt = audited_options();
  FlowResult ts = run_turbosyn(c, opt);
  Circuit renamed;  // same shape, one PI renamed
  {
    Circuit tmp = ts.mapped;
    std::string blif = write_blif_string(tmp, "m");
    const std::string from = ".inputs";
    const auto at = blif.find(from);
    ASSERT_NE(at, std::string::npos);
    blif.insert(at + from.size(), " extra_pi");
    renamed = read_blif_string(blif);
  }
  ts.mapped = renamed;
  AuditOptions audit;
  audit.check_equivalence = false;  // PI sets differ; the miter would throw
  const AuditReport report = audit_flow(c, ts, opt, audit);
  bool interface_failed = false;
  for (const AuditCheck& check : report.checks) {
    if (check.name == "interface") interface_failed = check.status == AuditStatus::kFail;
  }
  EXPECT_TRUE(interface_failed) << report.breakdown();
}

}  // namespace
}  // namespace turbosyn
