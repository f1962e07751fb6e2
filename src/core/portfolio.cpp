#include "core/portfolio.hpp"

#include <chrono>
#include <mutex>
#include <optional>
#include <utility>

#include "base/check.hpp"
#include "base/thread_pool.hpp"
#include "base/trace.hpp"
#include "core/probe_ledger.hpp"

namespace turbosyn {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One engine's slot in the race. Slots are constructed once and never
/// moved: losing engines are cancelled through `token`'s stable address
/// while their lane is still running.
struct Lane {
  const EngineSpec* spec = nullptr;
  FlowResult result;
  CancelToken token;
  bool ran = false;        // run_engine() completed (any status)
  bool skipped = false;    // dominated before it started; never ran
  bool certified = false;  // finished with status kOk
  bool cancel_requested = false;
  double seconds = 0.0;
  std::int64_t carved_ms = 0;
};

/// The cancellation rule: winner W (finished, certified) justifies stopping
/// engine E iff E provably cannot beat W *and* the selection order would
/// prefer W over E even on a φ tie. The position clause keeps equal-quality
/// duplicates deterministic: a later-listed twin never cancels an
/// earlier-listed one.
bool race_dominates(const EngineSpec& w, std::size_t pos_w, const EngineSpec& e,
                    std::size_t pos_e) {
  return never_beats(e, w) && (e.strength < w.strength || pos_w < pos_e);
}

/// Severity rank for the no-certificate fallback: prefer the least-bad
/// status (the Status enum is ordered by severity).
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
                         const FlowOptions& options, const PortfolioOptions& popt) {
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

  std::vector<Lane> lanes(n);
  for (std::size_t i = 0; i < n; ++i) {
    lanes[i].spec = engines[i];
    lanes[i].token.chain_to(options.budget.cancel_token());
  }

  std::mutex mu;

  const auto run_lane = [&](std::size_t i) {
    Lane& lane = lanes[i];
    {
      const std::lock_guard<std::mutex> lock(mu);
      // Dominated before starting: a finished certificate already proves
      // this engine cannot win, so skip the run entirely.
      for (std::size_t j = 0; j < n; ++j) {
        if (lanes[j].certified && race_dominates(*lanes[j].spec, j, *lane.spec, i)) {
          lane.skipped = true;
          lane.cancel_requested = true;
          lane.result.status = Status::kCancelled;
          break;
        }
      }
    }
    if (lane.skipped) {
      TraceSpan span(flow_span, "engine:" + lane.spec->name, "cancelled");
      span.counter("cancelled", 1);
      return;
    }

    FlowOptions opt = options;
    opt.budget = options.budget.fork();
    opt.budget.set_cancel_token(&lane.token);
    if (popt.budget_pool != nullptr) {
      lane.carved_ms = popt.budget_pool->carve(popt.slice_ms);
      if (lane.carved_ms > 0) opt.budget.tighten_deadline_ms(lane.carved_ms);
    }
    // Explicit parent: concurrent lanes run on pool threads, outside the
    // caller's per-thread span stack.
    TraceSpan span(flow_span, "engine:" + lane.spec->name);
    const auto lane_start = Clock::now();
    FlowResult r = run_engine(*lane.spec, c, opt);
    lane.seconds = seconds_since(lane_start);
    if (popt.budget_pool != nullptr) {
      popt.budget_pool->refund(lane.carved_ms,
                               static_cast<std::int64_t>(lane.seconds * 1000.0));
    }

    const std::lock_guard<std::mutex> lock(mu);
    lane.ran = true;
    lane.result = std::move(r);
    lane.certified = lane.result.status == Status::kOk;
    if (lane.certified) {
      // A certificate that outran a cancel request still counts: the run
      // finished exactly, so it is a finisher, not a casualty.
      lane.cancel_requested = false;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i || lanes[j].ran || lanes[j].skipped || lanes[j].cancel_requested) continue;
        if (race_dominates(*lane.spec, i, *lanes[j].spec, j)) {
          lanes[j].token.cancel();
          lanes[j].cancel_requested = true;
        }
      }
    } else if (lane.cancel_requested) {
      span.set_detail("cancelled");
      span.counter("cancelled", 1);
    }
    span.counter("phi", lane.result.phi);
  };

  if (popt.concurrent && n > 1) {
    ThreadPool::global().for_each(
        n, [&](std::size_t item) { run_lane(item); }, popt.max_workers);
  } else {
    for (std::size_t i = 0; i < n; ++i) run_lane(i);
  }

  // Selection: best certificate under (φ, -strength, position); without any
  // certificate, the least-degraded finished result under the same order.
  std::optional<std::size_t> winner;
  for (std::size_t i = 0; i < n; ++i) {
    if (!lanes[i].certified) continue;
    if (!winner ||
        portfolio_prefers(lanes[i].result.phi, lanes[i].spec->strength, i,
                          lanes[*winner].result.phi, lanes[*winner].spec->strength,
                          *winner)) {
      winner = i;
    }
  }
  if (!winner) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!lanes[i].ran) continue;
      if (!winner) {
        winner = i;
        continue;
      }
      const int si = severity(lanes[i].result.status);
      const int sw = severity(lanes[*winner].result.status);
      if (si != sw ? si < sw
                   : portfolio_prefers(lanes[i].result.phi, lanes[i].spec->strength, i,
                                       lanes[*winner].result.phi,
                                       lanes[*winner].spec->strength, *winner)) {
        winner = i;
      }
    }
  }
  TS_CHECK(winner.has_value(), "portfolio ran no engine");
  const Lane& win = lanes[*winner];

  // Provenance table first (the winner's result is moved out below).
  std::vector<EngineRun> table;
  table.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    EngineRun run;
    run.name = lanes[i].spec->name;
    run.certified = lanes[i].certified;
    run.cancelled = lanes[i].cancel_requested && !lanes[i].certified;
    run.status = lanes[i].ran ? lanes[i].result.status : Status::kCancelled;
    run.phi = lanes[i].ran ? lanes[i].result.phi : 0;
    run.luts = lanes[i].ran ? lanes[i].result.luts : 0;
    run.seconds = lanes[i].seconds;
    table.push_back(std::move(run));
  }

  FlowResult result = std::move(lanes[*winner].result);
  result.engine = win.spec->name;
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
    if (i == *winner || !lanes[i].ran) continue;
    for (ProbeRecord& rec : lanes[i].result.probes) {
      rec.engine = lanes[i].spec->name;
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
