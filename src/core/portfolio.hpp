#pragma once
// Portfolio racing: run several registry engines on one circuit and keep the
// best result, cancelling engines that provably cannot win.
//
// Racing protocol (DESIGN.md §15). Every engine gets its own FlowDriver,
// its own fresh ProbeLedger, a forked RunBudget slice and a per-engine
// CancelToken chained under the flow-level token. The moment an engine
// finishes *exactly* (status kOk — a certificate), every other engine E
// that provably cannot beat it is cancelled:
//
//   cancel E on winner W  iff  never_beats(E, W)  and
//                              (strength(E) < strength(W) or W is listed
//                               earlier than E)
//
// never_beats() (core/engines.hpp) encodes the one dominance fact — TurboSYN
// runs TurboMap's search as its phase A and scans down from it, so it never
// certifies a larger φ — and the position tie-break keeps the selection
// deterministic: an engine is only cancelled when the already-finished
// winner would also be preferred over it by the selection order
// (portfolio_prefers). Running the race is therefore bit-identical to
// running every engine to completion and picking the best, which is exactly
// what the fuzz oracle asserts.
//
// Selection. Among engines that finished with a certificate, the winner
// minimizes (φ, -strength, list position). When no engine certified (global
// deadline, SIGINT), the fallback is the least-degraded finished result
// under the same tie-break — still a valid, equivalent network, per the
// anytime guarantee of every engine.
//
// Ledger merge. The winner's probe records are tagged with its name; every
// loser's records follow in list order, tagged likewise. Uniqueness is
// re-enforced on (engine, mode, φ) as the merge replays through a
// ProbeLedger, and the winner's certificate stays authoritative: the
// auditor restricts severity/certification checks to records tagged with
// FlowResult::engine, so a losing engine's degraded probes can never
// outrank the winner's certificate.

#include <cstdint>
#include <string>
#include <vector>

#include "core/engines.hpp"

namespace turbosyn {

struct PortfolioOptions {
  /// Race the engines concurrently over ThreadPool::global(). Top-level
  /// callers only: for_each does not nest, so contexts already running
  /// inside a pool lane (the batch scheduler, the daemon's workers) must
  /// use the sequential mode — engines then run in list order and a
  /// certificate lets the runner *skip* every dominated engine that has not
  /// started yet, which preserves most of the wall-clock win.
  bool concurrent = true;
  /// Pool workers to involve (0 = all).
  int max_workers = 0;
  /// Optional wall-clock pool to carve per-engine deadline slices from;
  /// unused slice time is refunded, so the pool meters actual spend. Not
  /// owned. nullptr = each engine simply forks the flow budget.
  BudgetPool* budget_pool = nullptr;
  /// Requested slice per engine when budget_pool is set (0 = the pool's
  /// per-request ceiling).
  std::int64_t slice_ms = 0;
};

/// Parses a comma-separated engine list ("turbosyn,turbomap,flowsyn_s")
/// against the registry and validates it as a portfolio. Returns an empty
/// string on success (with `engines` filled), else a caller-printable error
/// naming the offending entry. Validation: at least one engine, no
/// duplicate names, one uniform objective (mixing the clock-period engine
/// with MDR engines would race incomparable φ's).
std::string parse_portfolio(const std::string& spec_list,
                            std::vector<const EngineSpec*>& engines);

/// Same validation for an already-resolved engine list.
std::string validate_portfolio(const std::vector<const EngineSpec*>& engines);

/// Races the engines on `c` and returns the selected result with merged,
/// engine-tagged probes, FlowResult::engine set to the winner and one
/// EngineRun row per engine in FlowResult::portfolio. The engine list must
/// validate (TS_CHECK). Trace: a "flow:portfolio" root span with one
/// "engine:<name>" span per engine, cancelled losers marked with detail
/// "cancelled" and counter cancelled=1.
FlowResult run_portfolio(const std::vector<const EngineSpec*>& engines, const Circuit& c,
                         const FlowOptions& options, const PortfolioOptions& popt = {});

}  // namespace turbosyn
