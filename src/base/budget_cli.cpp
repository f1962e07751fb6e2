#include "base/budget_cli.hpp"

#include <cstdlib>

namespace turbosyn {

RunBudget budget_from_cli(int argc, char** argv) {
  RunBudget budget;
  budget.set_cancel_token(&global_cancel_token());
  install_sigint_cancellation();
  install_sigterm_cancellation();
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--deadline-ms") {
      budget.set_deadline_after_ms(std::atoll(argv[++i]));
    } else if (flag == "--decomp-attempt-budget") {
      budget.set_decomp_attempt_budget(std::atoll(argv[++i]));
    } else if (flag == "--flow-augment-budget") {
      budget.set_flow_augment_budget(std::atoll(argv[++i]));
    }
  }
  return budget;
}

const char* budget_cli_help() {
  return "[--deadline-ms N] [--decomp-attempt-budget N] [--flow-augment-budget N]  "
         "(Ctrl-C cancels cooperatively)";
}

}  // namespace turbosyn
