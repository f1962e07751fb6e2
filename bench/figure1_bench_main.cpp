// The paper's Figure 1 walk-through as a measured experiment: at K=3, the
// registered loop s ^ (a&b) ^ (c&d) cannot reach MDR ratio 1 without
// resynthesis; TurboSYN's sequential functional decomposition moves the two
// AND terms into encoder LUTs off the loop and reaches ratio 1. The bench
// also sweeps ring circuits where plain TurboMap already collapses the loop.

#include <cstdlib>
#include <iostream>
#include <string>

#include "base/flow_cli.hpp"
#include "core/flows.hpp"
#include "retime/cycle_ratio.hpp"
#include "verify/audit.hpp"
#include "workloads/samples.hpp"
#include "workloads/table.hpp"

int main(int argc, char** argv) {
  using namespace turbosyn;
  const FlowCli cli = flow_cli_from_args(argc, argv);
  const bool audit = cli.audit;
  bool audits_ok = true;

  {
    const Circuit c = figure1_circuit();
    FlowOptions opt;
    opt.budget = cli.budget;
    opt.k = 3;
    opt.collect_artifacts = audit;
    opt.trace = cli.trace();
    const FlowResult tm = run_turbomap(c, opt);
    const FlowResult ts = run_turbosyn(c, opt);
    std::cout << "Figure 1 circuit (K=3): input MDR = " << circuit_mdr(c).ratio << '\n';
    std::cout << "  TurboMap : phi = " << tm.phi << ", LUTs = " << tm.luts
              << " (expected phi 2: the 5-input loop function needs two LUTs)\n";
    std::cout << "  TurboSYN : phi = " << ts.phi << ", LUTs = " << ts.luts
              << " (expected phi 1 via Roth-Karp encoders off the loop)\n\n";
    if (audit) {
      audits_ok &= audit_and_report(c, tm, opt, "figure1:turbomap", std::cout);
      audits_ok &= audit_and_report(c, ts, opt, "figure1:turbosyn", std::cout);
    }
  }

  TextTable table({"ring (stages/regs)", "input MDR", "TM phi", "TS phi"});
  for (const auto& [stages, regs] : {std::pair{4, 2}, {6, 2}, {8, 2}, {9, 3}, {12, 3}}) {
    const Circuit c = ring_circuit(stages, regs);
    FlowOptions opt;
    opt.budget = cli.budget;
    opt.collect_artifacts = audit;
    opt.trace = cli.trace();
    const FlowResult tm = run_turbomap(c, opt);
    const FlowResult ts = run_turbosyn(c, opt);
    if (audit) {
      const std::string ring = "ring" + std::to_string(stages) + "_" + std::to_string(regs);
      audits_ok &= audit_and_report(c, tm, opt, ring + ":turbomap", std::cout);
      audits_ok &= audit_and_report(c, ts, opt, ring + ":turbosyn", std::cout);
    }
    table.add_row({std::to_string(stages) + "/" + std::to_string(regs),
                   circuit_mdr(c).ratio.to_string(), std::to_string(tm.phi),
                   std::to_string(ts.phi)});
  }
  std::cout << "Ring sweep (K=5): loop compaction under retiming-aware mapping\n";
  table.print(std::cout);
  if (!cli.write_trace()) return 1;
  return audits_ok ? 0 : 1;
}
