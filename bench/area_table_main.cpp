// Area companion to Table 1: LUT and FF counts of the three flows.
//
// The paper (Section 6) notes that "TurboSYN loses on area as compared to
// TurboMap and FlowSYN-s due to shortcomings of the single-output functional
// decomposition" — this table reproduces that comparison, plus the effect of
// the label-relaxation LUT-reduction technique (Section 5 / tech report).
//
// Usage: area_table_main [--quick] [--audit]

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "base/flow_cli.hpp"
#include "core/flows.hpp"
#include "verify/audit.hpp"
#include "workloads/generator.hpp"
#include "workloads/table.hpp"

int main(int argc, char** argv) {
  using namespace turbosyn;
  const FlowCli cli = flow_cli_from_args(argc, argv);
  std::vector<BenchmarkSpec> suite = table1_suite();
  if (!cli.full) suite.resize(10);  // the no-relax rerun doubles TurboSYN cost
  if (cli.quick) suite.resize(6);

  const bool audit = cli.audit;
  FlowOptions opt;
  opt.budget = cli.budget;
  opt.collect_artifacts = audit;
  opt.trace = cli.trace();
  FlowOptions no_relax = opt;
  no_relax.label_relaxation = false;
  bool audits_ok = true;

  TextTable table({"circuit", "FS-s LUT", "TM LUT", "TS LUT", "TS LUT (no relax)", "FS-s FF",
                   "TM FF", "TS FF"});
  double log_ratio_tm = 0.0;
  double log_relax = 0.0;
  int rows = 0;
  for (const BenchmarkSpec& spec : suite) {
    const Circuit c = generate_fsm_circuit(spec);
    const FlowResult fs = run_flowsyn_s(c, opt);
    const FlowResult tm = run_turbomap(c, opt);
    const FlowResult ts = run_turbosyn(c, opt);
    const FlowResult ts_nr = run_turbosyn(c, no_relax);
    table.add_row({spec.name, std::to_string(fs.luts), std::to_string(tm.luts),
                   std::to_string(ts.luts), std::to_string(ts_nr.luts),
                   std::to_string(fs.ffs), std::to_string(tm.ffs), std::to_string(ts.ffs)});
    log_ratio_tm += std::log(static_cast<double>(ts.luts) / tm.luts);
    log_relax += std::log(static_cast<double>(ts_nr.luts) / std::max(1, ts.luts));
    ++rows;
    if (audit) {
      audits_ok &= audit_and_report(c, fs, opt, spec.name + ":flowsyn_s", std::cout);
      audits_ok &= audit_and_report(c, tm, opt, spec.name + ":turbomap", std::cout);
      audits_ok &= audit_and_report(c, ts, opt, spec.name + ":turbosyn", std::cout);
      audits_ok &= audit_and_report(c, ts_nr, no_relax, spec.name + ":turbosyn_norelax",
                                    std::cout);
    }
    std::cerr << "[area] " << spec.name << " done\n";
  }

  std::cout << "Area companion to Table 1 — LUT / FF counts, K=5\n";
  table.print(std::cout);
  std::cout << "\ngeomean LUT ratio TurboSYN / TurboMap = "
            << format_double(std::exp(log_ratio_tm / rows))
            << "  (paper: TurboSYN loses area to TurboMap)\n";
  std::cout << "label relaxation LUT saving (no-relax / relax) = "
            << format_double(std::exp(log_relax / rows)) << "x\n";
  if (!cli.write_trace()) return 1;
  return audits_ok ? 0 : 1;
}
