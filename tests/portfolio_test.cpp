// Portfolio racing: every row matches its engine's standalone run, the
// winner is the best standalone certificate, the no-certificate fallback,
// merged-ledger structure, and the "portfolio" audit check (including its
// rejection of seeded wrong-winner and unknown-engine fixtures).

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
  // Both orders: nothing is skipped, so TurboMap listed after TurboSYN still
  // runs and reports its own result.
  for (const auto& names : {std::vector<std::string>{"turbomap", "turbosyn", "flowsyn_s"},
                            std::vector<std::string>{"turbosyn", "turbomap", "flowsyn_s"}}) {
    const auto engines = engines_of(names);
    std::vector<FlowResult> standalone;
    for (const EngineSpec* spec : engines) standalone.push_back(run_engine(*spec, c, opt));
    const std::size_t best = best_standalone(engines, standalone);

    const FlowResult race = run_portfolio(engines, c, opt);
    EXPECT_EQ(race.engine, engines[best]->name) << names[0];
    EXPECT_EQ(fingerprint(race), fingerprint(standalone[best])) << names[0];
    ASSERT_EQ(race.portfolio.size(), engines.size());
    for (std::size_t i = 0; i < engines.size(); ++i) {
      const EngineRun& row = race.portfolio[i];
      EXPECT_EQ(row.name, engines[i]->name);
      EXPECT_EQ(row.phi, standalone[i].phi) << row.name;
      EXPECT_EQ(row.status, standalone[i].status) << row.name;
      EXPECT_EQ(row.luts, standalone[i].luts) << row.name;
      EXPECT_EQ(row.certified, standalone[i].status == Status::kOk) << row.name;
    }
  }
}

TEST(Portfolio, RaceKeepsAWeakerRankedEngineThatCertifiesTheSmallestPhi) {
  // FlowSYN-s certifies a smaller φ than TurboMap and TurboSYN on these
  // circuits at K = 5 (tiny2 and tiny6: 1 against 2; bbara: 2 against 3), so
  // the race must select it over both label searches.
  FlowOptions opt = test_options();
  opt.k = 5;
  const auto engines = engines_of({"turbomap", "turbosyn", "flowsyn_s"});
  const std::vector<BenchmarkSpec> tiny = tiny_suite();
  for (const BenchmarkSpec& spec : {tiny[1], tiny[5], table1_suite()[0]}) {
    const Circuit c = generate_fsm_circuit(spec);
    std::vector<FlowResult> standalone;
    for (const EngineSpec* engine : engines) standalone.push_back(run_engine(*engine, c, opt));
    const std::size_t best = best_standalone(engines, standalone);

    const FlowResult race = run_portfolio(engines, c, opt);
    EXPECT_EQ(race.engine, engines[best]->name) << spec.name;
    EXPECT_EQ(fingerprint(race), fingerprint(standalone[best])) << spec.name;
  }
}

TEST(Portfolio, MergedLedgerUniqueTaggedAndSound) {
  const Circuit c = test_circuit();
  const FlowOptions opt = test_options();
  // Both engines run and both ledgers merge.
  const auto engines = engines_of({"turbomap", "turbosyn"});

  const FlowResult race = run_portfolio(engines, c, opt);
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

TEST(Portfolio, CancelledFlowTokenReachesEveryEngineAndFallsBack) {
  const Circuit c = test_circuit();
  FlowOptions opt = test_options();
  CancelToken token;
  token.cancel();
  opt.budget.set_cancel_token(&token);
  const auto engines = engines_of({"turbomap", "turbosyn", "flowsyn_s"});

  // The flow-level token reaches each engine through its budget fork: no
  // engine certifies, and the least-degraded result under the selection
  // order ships.
  const FlowResult race = run_portfolio(engines, c, opt);
  ASSERT_EQ(race.portfolio.size(), engines.size());
  std::size_t fallback = 0;
  for (std::size_t i = 0; i < engines.size(); ++i) {
    const EngineRun& row = race.portfolio[i];
    EXPECT_TRUE(is_interrupt(row.status)) << row.name << ": " << status_name(row.status);
    EXPECT_FALSE(row.certified) << row.name;
    const EngineRun& best = race.portfolio[fallback];
    if (row.status != best.status
            ? row.status < best.status
            : portfolio_prefers(row.phi, engines[i]->strength, i, best.phi,
                                engines[fallback]->strength, fallback)) {
      fallback = i;
    }
  }
  EXPECT_EQ(race.engine, engines[fallback]->name);
  EXPECT_EQ(race.status, race.portfolio[fallback].status);
  EXPECT_EQ(race.phi, race.portfolio[fallback].phi);

  AuditOptions audit;
  audit.seq_cycles = 96;
  audit.seq_runs = 2;
  const AuditReport report = audit_flow(c, race, opt, audit);
  for (const AuditCheck& check : report.checks) {
    EXPECT_NE(check.status, AuditStatus::kFail) << check.name << ": " << check.detail;
  }
}

TEST(PortfolioAudit, RejectsSeededWrongWinner) {
  const Circuit c = test_circuit();
  const FlowOptions opt = test_options();
  const auto engines = engines_of({"turbomap", "turbosyn"});
  FlowResult race = run_portfolio(engines, c, opt);
  ASSERT_EQ(race.engine, "turbosyn");
  EXPECT_EQ(portfolio_check_status(c, race, opt), AuditStatus::kPass);

  // Seeded fixture: the table claims the weaker certified engine won. Either
  // the winner-row check (φ mismatch) or the selection-minimality re-check
  // (turbosyn's equal-φ, higher-strength certificate) must reject it.
  race.engine = "turbomap";
  EXPECT_EQ(portfolio_check_status(c, race, opt), AuditStatus::kFail);
}

TEST(PortfolioAudit, RejectsUnknownEngineRow) {
  const Circuit c = test_circuit();
  const FlowOptions opt = test_options();
  const auto engines = engines_of({"turbosyn", "turbomap"});
  FlowResult race = run_portfolio(engines, c, opt);

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
