// Scenario: latency/period trade-off exploration. Given a mapped network,
// pipelining trades I/O latency (extra register stages) for clock period
// down to the MDR bound. This example maps a circuit with TurboSYN, then
// sweeps explicit pipeline depths and reports the period retiming reaches at
// each depth — the curve that motivates minimizing the MDR ratio in the
// first place.
//
//   $ ./pipeline_explorer [gates]      (default 150)

#include <iostream>

#include "base/flow_cli.hpp"
#include "core/flows.hpp"
#include "retime/pipeline.hpp"
#include "workloads/generator.hpp"
#include "workloads/table.hpp"

int main(int argc, char** argv) {
  using namespace turbosyn;
  BenchmarkSpec spec;
  spec.name = "dsp";
  spec.seed = 616;
  spec.num_pis = 6;
  spec.num_pos = 4;
  spec.num_gates = 150;
  if (argc > 1 && !parse_int_strict(argv[1], 1, 1 << 20, spec.num_gates)) {
    std::cerr << "error: [gates] expects an integer in [1, " << (1 << 20) << "], got '"
              << argv[1] << "'\n";
    return 2;
  }
  spec.feedback = 0.04;
  spec.exotic_gate_ratio = 0.2;
  const Circuit c = generate_fsm_circuit(spec);

  FlowOptions options;
  options.pipeline = false;  // we sweep pipelining manually below
  const FlowResult ts = run_turbosyn(c, options);
  std::cout << "TurboSYN mapping: phi = " << ts.phi << ", exact MDR = " << ts.exact_mdr
            << ", " << ts.luts << " LUTs\n";
  std::cout << "period floor under retiming + pipelining = ceil(MDR) = "
            << ts.exact_mdr.ceil() << "\n\n";

  // Pipelining adds registers only at the I/O, so every depth keeps the MDR.
  TextTable table({"pipeline stages", "clock period after retiming", "latency added"});
  table.add_row(
      {"0", std::to_string(retime_without_pipelining(ts.mapped, ts.exact_mdr).period), "0"});
  for (int stages = 1; stages <= 8; stages *= 2) {
    Circuit piped = ts.mapped;
    pipeline_inputs(piped, stages);
    pipeline_outputs(piped, stages);
    table.add_row({std::to_string(stages),
                   std::to_string(retime_without_pipelining(piped, ts.exact_mdr).period),
                   std::to_string(2 * stages) + " cycles"});
  }
  table.print(std::cout);
  std::cout << "\nThe period saturates at the loop bound: pipelining cannot fix loops,\n"
               "which is why TurboSYN minimizes the MDR ratio of the mapping itself.\n";
  return 0;
}
