#pragma once
// Shared command-line plumbing for run budgets.
//
// Every main that runs a flow accepts the same knobs:
//   --deadline-ms N           wall-clock budget for each flow invocation
//   --decomp-attempt-budget N total decomposition attempts per run (0 =
//                             unlimited)
// and a SIGINT handler is installed so Ctrl-C cancels cooperatively (the
// flow returns its best-so-far result with Status::kCancelled; a second
// Ctrl-C terminates as usual). A value that is not an integer in range
// (malformed or negative) exits with status 2.

#include <string>

#include "base/run_budget.hpp"

namespace turbosyn {

/// Scans argv for the budget flags above (ignoring unrelated arguments),
/// wires the budget to global_cancel_token(), and installs the SIGINT
/// handler. Call once at the top of main(). Exits with status 2 on a
/// malformed or negative flag value.
RunBudget budget_from_cli(int argc, char** argv);

/// One-line usage blurb for the flags budget_from_cli() understands.
const char* budget_cli_help();

}  // namespace turbosyn
