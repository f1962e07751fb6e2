#pragma once
// Portfolio racing: run several registry engines on one circuit and keep the
// best result.
//
// Protocol (DESIGN.md §15). Every engine runs once, in list order, with its
// own FlowContext, its own fresh ProbeLedger and a fork of the flow budget
// (same deadline and cancel token, fresh decomposition-attempt counter), so
// a SIGINT at the flow level stops every engine. No engine is skipped: the
// race is, by construction, "run every engine to completion and pick the
// best", which is exactly what the fuzz oracle asserts.
//
// Selection. Among engines that finished with a certificate, the winner
// minimizes (φ, -strength, list position) (portfolio_prefers). When no
// engine certified (global deadline, SIGINT), the fallback is the
// least-degraded result under the same tie-break — still a valid,
// equivalent network, per the anytime guarantee of every engine.
//
// Ledger merge. The winner's probe records are tagged with its name; every
// loser's records follow in list order, tagged likewise. Uniqueness is
// re-enforced on (engine, mode, φ) as the merge replays through a
// ProbeLedger, and the winner's certificate stays authoritative: the
// auditor restricts severity/certification checks to records tagged with
// FlowResult::engine, so a losing engine's degraded probes can never
// outrank the winner's certificate.

#include <string>
#include <vector>

#include "core/engines.hpp"

namespace turbosyn {

struct PortfolioOptions {
  /// Ignored: engines always run in list order. Kept because synthbench sets it (ROADMAP item 5).
  bool concurrent = false;
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

/// Runs the engines on `c` and returns the selected result with merged,
/// engine-tagged probes, FlowResult::engine set to the winner and one
/// EngineRun row per engine in FlowResult::portfolio. The engine list must
/// validate (TS_CHECK). Trace: a "flow:portfolio" root span with one
/// "engine:<name>" span per engine.
FlowResult run_portfolio(const std::vector<const EngineSpec*>& engines, const Circuit& c,
                         const FlowOptions& options, const PortfolioOptions& popt = {});

}  // namespace turbosyn
