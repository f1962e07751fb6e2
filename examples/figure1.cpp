// The paper's Figure 1, step by step: why a target MDR ratio of 1 needs
// sequential functional decomposition, and what TurboSYN's labels, cuts and
// encoder LUTs look like on the smallest circuit that demonstrates it.
//
//   $ ./figure1

#include <iostream>

#include "core/flows.hpp"
#include "core/labeling.hpp"
#include "netlist/blif.hpp"
#include "workloads/samples.hpp"

int main() {
  using namespace turbosyn;
  const Circuit c = figure1_circuit();
  std::cout << "Circuit (BLIF):\n" << write_blif_string(c, "figure1") << '\n';
  std::cout << "The loop g2 ->FF-> g1 -> g2 computes s ^ (a&b) ^ (c&d): 5 distinct\n"
               "inputs, so at K=3 no single LUT covers it and plain mapping keeps two\n"
               "LUTs on the loop — MDR ratio 2.\n\n";

  LabelOptions turbomap_opts;
  turbomap_opts.k = 3;
  const LabelResult tm = compute_labels(c, 1, turbomap_opts);
  std::cout << "TurboMap label computation at phi=1: "
            << (tm.feasible ? "feasible" : "positive loop -> infeasible") << " after "
            << tm.stats.sweeps << " sweeps\n";

  LabelOptions turbosyn_opts = turbomap_opts;
  turbosyn_opts.enable_decomposition = true;
  const LabelResult ts = compute_labels(c, 1, turbosyn_opts);
  std::cout << "TurboSYN label computation at phi=1: "
            << (ts.feasible ? "feasible" : "infeasible") << " after " << ts.stats.sweeps
            << " sweeps, " << ts.stats.decomp_successes << " successful decompositions\n\n";

  FlowOptions options;
  options.k = 3;
  const FlowResult result = run_turbosyn(c, options);
  std::cout << "TurboSYN mapping: phi = " << result.phi << ", exact MDR = " << result.exact_mdr
            << ", " << result.luts << " LUTs\n";
  std::cout << "Mapped network (note the two encoder LUTs feeding the loop LUT):\n"
            << write_blif_string(result.mapped, "figure1_mapped");
  return 0;
}
