#include "core/portfolio.hpp"

#include <chrono>
#include <cstdint>
#include <utility>

#include "base/check.hpp"
#include "base/trace.hpp"
#include "core/probe_ledger.hpp"

namespace turbosyn {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Severity rank for selection: the Status enum is ordered by severity,
/// kOk (a certificate) first.
int severity(Status s) { return static_cast<int>(s); }

}  // namespace

std::string validate_portfolio(const std::vector<const EngineSpec*>& engines) {
  if (engines.empty()) return "portfolio needs at least one engine";
  for (std::size_t i = 0; i < engines.size(); ++i) {
    if (engines[i] == nullptr) return "portfolio contains an unknown engine";
    for (std::size_t j = 0; j < i; ++j) {
      if (engines[j]->name == engines[i]->name) {
        return "engine listed twice in portfolio: " + engines[i]->name;
      }
    }
    if (engines[i]->period_objective != engines[0]->period_objective) {
      return "portfolio mixes clock-period and MDR objectives (" + engines[0]->name +
             " vs " + engines[i]->name + "): their phi values are incomparable";
    }
  }
  return {};
}

std::string parse_portfolio(const std::string& spec_list,
                            std::vector<const EngineSpec*>& engines) {
  engines.clear();
  std::size_t begin = 0;
  while (begin <= spec_list.size()) {
    std::size_t end = spec_list.find(',', begin);
    if (end == std::string::npos) end = spec_list.size();
    const std::string name = spec_list.substr(begin, end - begin);
    if (name.empty()) return "portfolio has an empty engine name (stray comma?)";
    const EngineSpec* spec = find_engine(name);
    if (spec == nullptr) {
      return "unknown engine '" + name + "' (see --engines-list)";
    }
    engines.push_back(spec);
    if (end == spec_list.size()) break;
    begin = end + 1;
  }
  return validate_portfolio(engines);
}

FlowResult run_portfolio(const std::vector<const EngineSpec*>& engines, const Circuit& c,
                         const FlowOptions& options, const PortfolioOptions& /*popt*/) {
  const std::string invalid = validate_portfolio(engines);
  TS_CHECK(invalid.empty(), "invalid portfolio: " << invalid);
  const std::size_t n = engines.size();
  const auto start = Clock::now();

  std::string names;
  for (const EngineSpec* spec : engines) {
    if (!names.empty()) names += ',';
    names += spec->name;
  }
  TraceSpan flow_span(options.trace, "flow:portfolio", names);

  std::vector<FlowResult> results(n);
  std::vector<double> seconds(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    FlowOptions opt = options;
    opt.budget = options.budget.fork();
    TraceSpan span(options.trace, "engine:" + engines[i]->name);
    const auto engine_start = Clock::now();
    results[i] = run_engine(*engines[i], c, opt);
    seconds[i] = seconds_since(engine_start);
    span.counter("phi", results[i].phi);
  }

  // Selection: the least severe status first (a certificate, kOk, beats
  // every degraded or interrupted result), then (φ, -strength, position).
  std::size_t winner = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const int si = severity(results[i].status);
    const int sw = severity(results[winner].status);
    if (si != sw ? si < sw
                 : portfolio_prefers(results[i].phi, engines[i]->strength, i,
                                     results[winner].phi, engines[winner]->strength, winner)) {
      winner = i;
    }
  }

  // Provenance table first (the winner's result is moved out below).
  std::vector<EngineRun> table;
  table.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    EngineRun run;
    run.name = engines[i]->name;
    run.certified = results[i].status == Status::kOk;
    run.status = results[i].status;
    run.phi = results[i].phi;
    run.luts = results[i].luts;
    run.seconds = seconds[i];
    table.push_back(std::move(run));
  }

  FlowResult result = std::move(results[winner]);
  result.engine = engines[winner]->name;
  result.portfolio = std::move(table);

  // Merged ledger: the winner's records first, each loser's in list order,
  // all engine-tagged. Replaying through a ProbeLedger re-enforces the
  // (engine, mode, φ) uniqueness rule structurally.
  ProbeLedger merged;
  for (ProbeRecord& rec : result.probes) {
    rec.engine = result.engine;
    merged.record(std::move(rec));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (i == winner) continue;
    for (ProbeRecord& rec : results[i].probes) {
      rec.engine = engines[i]->name;
      merged.record(std::move(rec));
    }
  }
  result.probes = merged.records();

  result.seconds = seconds_since(start);
  flow_span.counter("engines", static_cast<std::int64_t>(n));
  flow_span.set_detail(names + " -> " + result.engine);
  return result;
}

}  // namespace turbosyn
