#include "base/budget_cli.hpp"

#include <cstdlib>
#include <iostream>
#include <limits>

#include "base/flow_cli.hpp"

namespace turbosyn {
namespace {

/// Strict value of a budget flag; exits with status 2 on anything but an
/// integer in [0, hi] ("abc" must not silently mean 0 or "unlimited").
std::int64_t budget_value(const std::string& flag, const char* text, long long hi) {
  long long value = 0;
  if (!parse_int_strict(text, 0, hi, value)) {
    std::cerr << "error: " << flag << " expects an integer in [0, " << hi << "], got '" << text
              << "'\n";
    std::exit(2);
  }
  return value;
}

}  // namespace

RunBudget budget_from_cli(int argc, char** argv) {
  RunBudget budget;
  budget.set_cancel_token(&global_cancel_token());
  install_sigint_cancellation();
  install_sigterm_cancellation();
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--deadline-ms") {
      // 2^40 ms (~35 years) keeps now() + deadline inside steady_clock.
      budget.set_deadline_after_ms(budget_value(flag, argv[++i], 1LL << 40));
    } else if (flag == "--decomp-attempt-budget") {
      budget.set_decomp_attempt_budget(
          budget_value(flag, argv[++i], std::numeric_limits<long long>::max()));
    }
  }
  return budget;
}

const char* budget_cli_help() {
  return "[--deadline-ms N] [--decomp-attempt-budget N]  (Ctrl-C cancels cooperatively)";
}

}  // namespace turbosyn
