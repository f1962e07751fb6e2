#pragma once
// Shared command-line plumbing for the flow-running mains.
//
// Every example and benchmark main accepts the same knobs; parsing them
// lived as near-identical loops in eight mains before this header. One call
// collects them all:
//
//   --audit              re-verify every invariant of each result
//   --quick / --full     benchmark regime selectors (mains interpret them)
//   --trace-json=PATH    write a per-stage/per-probe trace of the run(s)
//                        (see base/trace.hpp for the schema); also accepted
//                        as "--trace-json PATH"
//   --cache-dir=PATH     persistent flow-artifact cache directory (see
//                        cache/flow_cache.hpp); also "--cache-dir PATH".
//                        Mains construct the FlowCache from `cache_dir`
//                        themselves (this library does not depend on it).
//   --failpoints=SPEC    arm deterministic fault-injection sites (see
//                        base/failpoint.hpp for the spec grammar); also
//                        "--failpoints SPEC". The TS_FAILPOINTS environment
//                        variable is applied first, so a flag can override
//                        individual sites of an env-armed schedule.
//   --deadline-ms N and the other run-budget ceilings (base/budget_cli.hpp);
//   a SIGINT handler is installed so Ctrl-C cancels cooperatively.
//
// Unrecognized arguments are ignored, so positional arguments and
// main-specific flags pass through untouched.

#include <memory>
#include <string>
#include <string_view>

#include "base/run_budget.hpp"

namespace turbosyn {

class TraceSink;

class FlowCli {
 public:
  FlowCli();
  ~FlowCli();
  FlowCli(FlowCli&&) noexcept;
  FlowCli& operator=(FlowCli&&) noexcept;

  bool audit = false;
  bool quick = false;
  bool full = false;
  /// --engines-list was given: the main should print the engine registry
  /// (engine_list_text() in core/engines.hpp) and exit 0. Collected here as
  /// a flag because this library sits below core and cannot see the
  /// registry itself.
  bool engines_list = false;
  RunBudget budget;
  std::string trace_json_path;  // empty: tracing disabled
  std::string cache_dir;        // empty: caching disabled
  std::string failpoints;       // armed spec (env + flag), for logs; may be empty
  /// --portfolio=LIST engine race spec (comma-separated registry names,
  /// e.g. "turbosyn,turbomap,flowsyn_s"). Empty: no portfolio. Mains
  /// resolve and validate it with parse_portfolio (core/portfolio.hpp) —
  /// unknown names must exit 2 there, naming the engine.
  std::string portfolio;

  /// The owned trace sink, or nullptr when --trace-json was not given.
  /// Assign to FlowOptions::trace.
  TraceSink* trace() const { return trace_sink_.get(); }

  /// Writes the trace JSON to --trace-json's path. No-op (returning true)
  /// when tracing is disabled; prints to stderr and returns false when the
  /// file cannot be written. Call once after the flows finish.
  bool write_trace() const;

 private:
  friend FlowCli flow_cli_from_args(int argc, char** argv);
  std::unique_ptr<TraceSink> trace_sink_;
};

/// Strict base-10 integer parsing for CLI flags and protocol fields:
/// optional leading '-', digits only, the whole token consumed, result
/// within [lo, hi]. Returns false (leaving `out` untouched) on anything
/// else. Unlike std::atoi, "abc" never silently becomes 0 and "3x" never
/// becomes 3 — the daemon's request parser and every flag that feeds a
/// thread/worker count share this one validator.
bool parse_int_strict(std::string_view text, long long lo, long long hi, long long& out);

/// parse_int_strict for int-sized flags.
bool parse_int_strict(std::string_view text, int lo, int hi, int& out);

/// Scans argv for the flags above (ignoring unrelated arguments), wires the
/// budget to global_cancel_token(), and installs the SIGINT handler. Call
/// once at the top of main(). Exits with status 2 (after printing to
/// stderr) on a malformed value for a recognized flag — "--deadline-ms abc"
/// must never silently run as a 0 ms deadline.
FlowCli flow_cli_from_args(int argc, char** argv);

/// Usage blurb for the flags flow_cli_from_args() understands (includes the
/// budget flags).
std::string flow_cli_help();

}  // namespace turbosyn
