// Ablations over the design choices DESIGN.md calls out:
//   - expansion depth past the allowed frontier of E_v (reconvergence
//     coverage vs cost of the partial flow network),
//   - multiplicity engine (OBDD, as in the paper, vs truth tables),
//   - decomposition min-cut height span,
//   - packing on/off.
// Reported per configuration: TurboSYN phi, LUTs and time over a subset of
// the suite.
//
// Usage: ablation_main [--quick] [--audit]

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "base/flow_cli.hpp"
#include "core/flows.hpp"
#include "verify/audit.hpp"
#include "workloads/generator.hpp"
#include "workloads/table.hpp"

namespace {

struct Config {
  std::string name;
  turbosyn::FlowOptions options;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace turbosyn;
  const FlowCli cli = flow_cli_from_args(argc, argv);
  std::vector<BenchmarkSpec> suite = table1_suite();
  suite.resize(cli.full ? 6 : 3);  // ablations multiply the cost per circuit

  const bool audit = cli.audit;
  std::vector<Config> configs;
  {
    Config base{"base (extra=2, span=3, pack)", FlowOptions{}};
    base.options.budget = cli.budget;
    base.options.collect_artifacts = audit;
    base.options.trace = cli.trace();
    configs.push_back(base);
    Config e0 = base;
    e0.name = "expansion extra=0";
    e0.options.expansion.extra_levels = 0;
    configs.push_back(e0);
    Config e4 = base;
    e4.name = "expansion extra=4";
    e4.options.expansion.extra_levels = 4;
    configs.push_back(e4);
    Config span1 = base;
    span1.name = "height span=1";
    span1.options.height_span = 1;
    configs.push_back(span1);
    Config nolcc = base;
    nolcc.name = "low-cost cuts off";
    nolcc.options.low_cost_cuts = false;
    configs.push_back(nolcc);
    Config nodedupe = base;
    nodedupe.name = "dedupe off";
    nodedupe.options.dedupe = false;
    configs.push_back(nodedupe);
    Config nopack = base;
    nopack.name = "packing off";
    nopack.options.pack = false;
    configs.push_back(nopack);
  }

  TextTable table({"config", "circuit", "TS phi", "TS LUT", "TS s"});
  bool audits_ok = true;
  for (const Config& cfg : configs) {
    for (const BenchmarkSpec& spec : suite) {
      const Circuit c = generate_fsm_circuit(spec);
      const FlowResult ts = run_turbosyn(c, cfg.options);
      if (audit) {
        audits_ok &= audit_and_report(c, ts, cfg.options, cfg.name + " / " + spec.name,
                                      std::cout);
      }
      table.add_row({cfg.name, spec.name, std::to_string(ts.phi), std::to_string(ts.luts),
                     format_double(ts.seconds)});
      std::cerr << "[ablation] " << cfg.name << " / " << spec.name << " done\n";
    }
  }
  std::cout << "TurboSYN design-choice ablations (K=5)\n";
  table.print(std::cout);
  if (!cli.write_trace()) return 1;
  return audits_ok ? 0 : 1;
}
