// Table 1 of the paper: minimum clock period (MDR ratio) under retiming and
// pipelining, and CPU time, for FlowSYN-s, TurboMap and TurboSYN over the
// 16-circuit suite (12 MCNC FSM + 4 ISCAS'89 stand-ins), K = 5.
//
// The paper reports TurboSYN reducing the clock period by 1.72x vs FlowSYN-s
// and 1.96x vs TurboMap on average; the geometric-mean ratios printed at the
// bottom are the reproduction of that headline.
//
// Usage: table1_main [--quick]   (--quick runs the first 6 circuits only)
//                    [--audit]   (re-verify every invariant of each result)

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "base/flow_cli.hpp"
#include "core/flows.hpp"
#include "netlist/circuit.hpp"
#include "verify/audit.hpp"
#include "workloads/generator.hpp"
#include "workloads/table.hpp"

namespace {

double phi_of(const turbosyn::FlowResult& r) { return static_cast<double>(r.phi); }

}  // namespace

int main(int argc, char** argv) {
  using namespace turbosyn;
  const FlowCli cli = flow_cli_from_args(argc, argv);

  std::vector<BenchmarkSpec> suite = table1_suite();
  if (cli.quick) suite.resize(6);

  const bool audit = cli.audit;
  FlowOptions opt;  // K = 5, PLD on, as in the paper
  opt.budget = cli.budget;
  opt.collect_artifacts = audit;
  opt.trace = cli.trace();
  bool audits_ok = true;
  TextTable table({"circuit", "GATE", "FF", "FS-s phi", "FS-s s", "TM phi", "TM s", "TS phi",
                   "TS s"});

  double log_fs = 0.0;
  double log_tm = 0.0;
  double log_ts = 0.0;
  int rows = 0;
  for (const BenchmarkSpec& spec : suite) {
    const Circuit c = generate_fsm_circuit(spec);
    const CircuitStats st = compute_stats(c);
    const FlowResult fs = run_flowsyn_s(c, opt);
    const FlowResult tm = run_turbomap(c, opt);
    const FlowResult ts = run_turbosyn(c, opt);
    table.add_row({spec.name, std::to_string(st.gates), std::to_string(st.ffs),
                   std::to_string(fs.phi), format_double(fs.seconds),
                   std::to_string(tm.phi), format_double(tm.seconds),
                   std::to_string(ts.phi), format_double(ts.seconds)});
    log_fs += std::log(phi_of(fs));
    log_tm += std::log(phi_of(tm));
    log_ts += std::log(phi_of(ts));
    ++rows;
    if (audit) {
      audits_ok &= audit_and_report(c, fs, opt, spec.name + ":flowsyn_s", std::cout);
      audits_ok &= audit_and_report(c, tm, opt, spec.name + ":turbomap", std::cout);
      audits_ok &= audit_and_report(c, ts, opt, spec.name + ":turbosyn", std::cout);
    }
    std::cerr << "[table1] " << spec.name << " done (FS-s " << fs.phi << ", TM " << tm.phi
              << ", TS " << ts.phi << ")\n";
  }

  std::cout << "Table 1 — minimum clock period (MDR ratio) under retiming + pipelining, K=5\n";
  table.print(std::cout);
  const double gm_fs = std::exp(log_fs / rows);
  const double gm_tm = std::exp(log_tm / rows);
  const double gm_ts = std::exp(log_ts / rows);
  std::cout << "\ngeomean phi:  FlowSYN-s " << format_double(gm_fs) << "   TurboMap "
            << format_double(gm_tm) << "   TurboSYN " << format_double(gm_ts) << '\n';
  std::cout << "clock period reduction:  TurboSYN vs FlowSYN-s = "
            << format_double(gm_fs / gm_ts) << "x   (paper: 1.72x)\n";
  std::cout << "                         TurboSYN vs TurboMap  = "
            << format_double(gm_tm / gm_ts) << "x   (paper: 1.96x)\n";
  if (!cli.write_trace()) return 1;
  return audits_ok ? 0 : 1;
}
