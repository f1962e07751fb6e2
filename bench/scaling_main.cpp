// The scalability claim (abstract): "TurboSYN can optimize sequential
// circuits of over 10^4 gates and 10^3 flipflops in reasonable time."
//
// Runs TurboMap and TurboSYN over circuits from 1k to 12k gates and reports
// wall-clock time, the found ratio and the label-computation volume.
//
// Usage: scaling_main [--quick] [--audit]
//        (--quick stops at 4k gates; --audit re-verifies each result)

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
  std::vector<BenchmarkSpec> suite = scaling_suite();
  if (cli.quick) suite.resize(3);

  const bool audit = cli.audit;
  FlowOptions opt;
  opt.budget = cli.budget;
  opt.collect_artifacts = audit;
  opt.trace = cli.trace();
  bool audits_ok = true;
  TextTable table({"circuit", "GATE", "FF", "TM phi", "TM s", "TS phi", "TS s", "TS sweeps"});
  for (const BenchmarkSpec& spec : suite) {
    const Circuit c = generate_fsm_circuit(spec);
    const CircuitStats st = compute_stats(c);
    const FlowResult tm = run_turbomap(c, opt);
    if (audit) audits_ok &= audit_and_report(c, tm, opt, spec.name + ":turbomap", std::cout);
    const FlowResult ts = run_turbosyn(c, opt);
    if (audit) audits_ok &= audit_and_report(c, ts, opt, spec.name + ":turbosyn", std::cout);
    table.add_row({spec.name, std::to_string(st.gates), std::to_string(st.ffs),
                   std::to_string(tm.phi), format_double(tm.seconds),
                   std::to_string(ts.phi), format_double(ts.seconds),
                   std::to_string(ts.stats.sweeps)});
    std::cerr << "[scaling] " << spec.name << ": TM " << format_double(tm.seconds)
              << "s, TS " << format_double(ts.seconds) << "s\n";
  }
  std::cout << "Scalability — TurboMap / TurboSYN runtime vs circuit size (K=5)\n";
  table.print(std::cout);
  if (!cli.write_trace()) return 1;
  return audits_ok ? 0 : 1;
}
