// Portfolio racing: determinism of the winner, soundness of cancellation,
// merged-ledger structure, and the "portfolio" audit check (including its
// rejection of seeded wrong-winner and incoherent-row fixtures).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/engines.hpp"
#include "core/flows.hpp"
#include "core/portfolio.hpp"
#include "netlist/blif.hpp"
#include "verify/audit.hpp"
#include "workloads/generator.hpp"

namespace turbosyn {
namespace {

Circuit test_circuit(std::uint64_t seed = 11, int gates = 40) {
  BenchmarkSpec spec;
  spec.name = "portfolio" + std::to_string(seed);
  spec.seed = seed;
  spec.num_pis = 4;
  spec.num_pos = 3;
  spec.num_gates = gates;
  spec.feedback = 0.12;
  spec.max_fanin = 3;
  return generate_fsm_circuit(spec);
}

FlowOptions test_options() {
  FlowOptions opt;
  opt.k = 4;
  opt.collect_artifacts = true;
  return opt;
}

std::vector<const EngineSpec*> engines_of(const std::vector<std::string>& names) {
  std::vector<const EngineSpec*> engines;
  for (const std::string& name : names) {
    const EngineSpec* spec = find_engine(name);
    EXPECT_NE(spec, nullptr) << name;
    engines.push_back(spec);
  }
  return engines;
}

std::string fingerprint(const FlowResult& r) {
  return std::to_string(r.phi) + "|" + std::to_string(r.period) + "|" +
         std::to_string(r.pipeline_stages) + "|" + write_blif_string(r.mapped, "fp");
}

/// The oracle: run every engine standalone to completion and pick the best
/// certificate under the shared selection order.
std::size_t best_standalone(const std::vector<const EngineSpec*>& engines,
                            const std::vector<FlowResult>& results) {
  std::size_t best = 0;
  bool have = false;
  for (std::size_t i = 0; i < engines.size(); ++i) {
    if (results[i].status != Status::kOk) continue;
    if (!have || portfolio_prefers(results[i].phi, engines[i]->strength, i,
                                   results[best].phi, engines[best]->strength, best)) {
      best = i;
      have = true;
    }
  }
  EXPECT_TRUE(have) << "no standalone engine certified";
  return best;
}

AuditStatus portfolio_check_status(const Circuit& input, const FlowResult& result,
                                   const FlowOptions& options) {
  AuditOptions audit;
  audit.check_equivalence = false;  // the race structure is what's under test
  const AuditReport report = audit_flow(input, result, options, audit);
  for (const AuditCheck& check : report.checks) {
    if (check.name == "portfolio") return check.status;
  }
  ADD_FAILURE() << "no 'portfolio' check in the report";
  return AuditStatus::kSkipped;
}

TEST(Portfolio, SequentialRaceMatchesBestStandalone) {
  const Circuit c = test_circuit();
  const FlowOptions opt = test_options();
  const auto engines = engines_of({"turbomap", "turbosyn", "flowsyn_s"});

  std::vector<FlowResult> standalone;
  for (const EngineSpec* spec : engines) standalone.push_back(run_engine(*spec, c, opt));
  const std::size_t best = best_standalone(engines, standalone);

  PortfolioOptions popt;
  popt.concurrent = false;
  const FlowResult race = run_portfolio(engines, c, opt, popt);
  EXPECT_EQ(race.engine, engines[best]->name);
  EXPECT_EQ(fingerprint(race), fingerprint(standalone[best]));
  ASSERT_EQ(race.portfolio.size(), engines.size());
}

TEST(Portfolio, ConcurrentRaceDeterministicWinner) {
  const Circuit c = test_circuit(23, 48);
  const FlowOptions opt = test_options();
  const auto engines = engines_of({"turbomap", "turbosyn", "flowsyn_s"});

  PortfolioOptions seq;
  seq.concurrent = false;
  const FlowResult reference = run_portfolio(engines, c, opt, seq);

  // The concurrent race may cancel different losers on different runs, but
  // the winner and its result are pinned by the dominance rule: bit-identical
  // to the sequential race, run after run.
  for (int round = 0; round < 3; ++round) {
    const FlowResult race = run_portfolio(engines, c, opt);
    EXPECT_EQ(race.engine, reference.engine) << "round " << round;
    EXPECT_EQ(fingerprint(race), fingerprint(reference)) << "round " << round;
  }
}

TEST(Portfolio, SequentialDominanceSkipsDominatedEngines) {
  const Circuit c = test_circuit();
  const FlowOptions opt = test_options();
  // TurboSYN leads, so its certificate dominates TurboMap before it starts:
  // provably-lost work is skipped, not run. Nothing dominates FlowSYN-s,
  // which decomposes and can certify a smaller φ than either, so it runs.
  const auto engines = engines_of({"turbosyn", "turbomap", "flowsyn_s"});

  PortfolioOptions popt;
  popt.concurrent = false;
  const FlowResult race = run_portfolio(engines, c, opt, popt);
  ASSERT_EQ(race.portfolio.size(), 3u);
  EXPECT_EQ(race.engine, "turbosyn");
  EXPECT_TRUE(race.portfolio[0].certified);
  EXPECT_FALSE(race.portfolio[0].cancelled);
  EXPECT_TRUE(race.portfolio[1].cancelled);
  EXPECT_FALSE(race.portfolio[1].certified);
  EXPECT_EQ(race.portfolio[1].status, Status::kCancelled);
  EXPECT_EQ(race.portfolio[1].seconds, 0.0);
  EXPECT_FALSE(race.portfolio[2].cancelled);
  EXPECT_TRUE(race.portfolio[2].certified);
}

TEST(Portfolio, RaceKeepsAWeakerRankedEngineThatCertifiesTheSmallestPhi) {
  // FlowSYN-s certifies a smaller φ than TurboMap and TurboSYN on these
  // circuits at K = 5 (tiny2 and tiny6: 1 against 2; bbara: 2 against 3), so
  // no dominance rule may skip or cancel it.
  FlowOptions opt = test_options();
  opt.k = 5;
  const auto engines = engines_of({"turbomap", "turbosyn", "flowsyn_s"});
  const std::vector<BenchmarkSpec> tiny = tiny_suite();
  for (const BenchmarkSpec& spec : {tiny[1], tiny[5], table1_suite()[0]}) {
    const Circuit c = generate_fsm_circuit(spec);
    std::vector<FlowResult> standalone;
    for (const EngineSpec* engine : engines) standalone.push_back(run_engine(*engine, c, opt));
    const std::size_t best = best_standalone(engines, standalone);

    PortfolioOptions popt;
    popt.concurrent = false;
    const FlowResult race = run_portfolio(engines, c, opt, popt);
    EXPECT_EQ(race.engine, engines[best]->name) << spec.name;
    EXPECT_EQ(fingerprint(race), fingerprint(standalone[best])) << spec.name;
    const FlowResult concurrent = run_portfolio(engines, c, opt);
    EXPECT_EQ(concurrent.engine, engines[best]->name) << spec.name;
    EXPECT_EQ(fingerprint(concurrent), fingerprint(standalone[best])) << spec.name;
  }
}

TEST(Portfolio, MergedLedgerUniqueTaggedAndSound) {
  const Circuit c = test_circuit();
  const FlowOptions opt = test_options();
  // turbomap leads but cannot cancel the stronger turbosyn: both run, both
  // ledgers merge.
  const auto engines = engines_of({"turbomap", "turbosyn"});

  PortfolioOptions popt;
  popt.concurrent = false;
  const FlowResult race = run_portfolio(engines, c, opt, popt);
  EXPECT_EQ(race.engine, "turbosyn");
  EXPECT_TRUE(race.portfolio[0].certified);
  EXPECT_TRUE(race.portfolio[1].certified);

  std::set<std::string> keys;
  bool winner_certificate = false;
  ASSERT_FALSE(race.probes.empty());
  for (const ProbeRecord& rec : race.probes) {
    EXPECT_TRUE(rec.engine == "turbomap" || rec.engine == "turbosyn") << rec.engine;
    const std::string key = rec.engine + "|" + std::to_string(static_cast<int>(rec.mode)) +
                            "|" + std::to_string(rec.phi);
    EXPECT_TRUE(keys.insert(key).second) << "duplicate probe " << key;
    if (rec.engine == race.engine && rec.phi == race.phi && rec.feasible &&
        rec.outcome == ProbeOutcome::kOk) {
      winner_certificate = true;
    }
  }
  EXPECT_TRUE(winner_certificate) << "merged ledger lost the winner's certificate";
}

TEST(Portfolio, AuditPassesCleanRace) {
  const Circuit c = test_circuit();
  const FlowOptions opt = test_options();
  const auto engines = engines_of({"turbomap", "turbosyn", "flowsyn_s"});
  const FlowResult race = run_portfolio(engines, c, opt);

  AuditOptions audit;
  audit.seq_cycles = 96;
  audit.seq_runs = 2;
  const AuditReport report = audit_flow(c, race, opt, audit);
  EXPECT_TRUE(report.passed()) << report.breakdown();
  EXPECT_EQ(portfolio_check_status(c, race, opt), AuditStatus::kPass);
}

TEST(PortfolioAudit, RejectsSeededWrongWinner) {
  const Circuit c = test_circuit();
  const FlowOptions opt = test_options();
  const auto engines = engines_of({"turbomap", "turbosyn"});
  PortfolioOptions popt;
  popt.concurrent = false;
  FlowResult race = run_portfolio(engines, c, opt, popt);
  ASSERT_EQ(race.engine, "turbosyn");
  EXPECT_EQ(portfolio_check_status(c, race, opt), AuditStatus::kPass);

  // Seeded fixture: the table claims the weaker certified engine won. Either
  // the winner-row check (φ mismatch) or the selection-minimality re-check
  // (turbosyn's equal-φ, higher-strength certificate) must reject it.
  race.engine = "turbomap";
  EXPECT_EQ(portfolio_check_status(c, race, opt), AuditStatus::kFail);
}

TEST(PortfolioAudit, RejectsIncoherentCancelledRow) {
  const Circuit c = test_circuit();
  const FlowOptions opt = test_options();
  const auto engines = engines_of({"turbosyn", "turbomap", "flowsyn_s"});
  PortfolioOptions popt;
  popt.concurrent = false;
  FlowResult race = run_portfolio(engines, c, opt, popt);
  ASSERT_TRUE(race.portfolio[1].cancelled);

  // A cancelled row must carry an interrupt status; claiming it finished
  // cleanly while cancelled is incoherent provenance.
  race.portfolio[1].status = Status::kOk;
  EXPECT_EQ(portfolio_check_status(c, race, opt), AuditStatus::kFail);
}

TEST(PortfolioAudit, RejectsUnknownEngineRow) {
  const Circuit c = test_circuit();
  const FlowOptions opt = test_options();
  const auto engines = engines_of({"turbosyn", "turbomap"});
  PortfolioOptions popt;
  popt.concurrent = false;
  FlowResult race = run_portfolio(engines, c, opt, popt);

  race.portfolio[1].name = "not_in_registry";
  EXPECT_EQ(portfolio_check_status(c, race, opt), AuditStatus::kFail);
}

TEST(Portfolio, ParseRejectsBadSpecs) {
  std::vector<const EngineSpec*> engines;
  EXPECT_NE(parse_portfolio("turbosyn,bogus", engines).find("bogus"), std::string::npos);
  EXPECT_NE(parse_portfolio("turbomap,turbomap", engines).find("twice"), std::string::npos);
  EXPECT_NE(parse_portfolio("turbomap_period,turbosyn", engines).find("incomparable"),
            std::string::npos);
  EXPECT_FALSE(parse_portfolio("turbosyn,,turbomap", engines).empty());
  EXPECT_TRUE(parse_portfolio("turbosyn,turbomap,flowsyn_s", engines).empty());
  EXPECT_EQ(engines.size(), 3u);
}

}  // namespace
}  // namespace turbosyn
