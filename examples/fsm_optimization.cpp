// Domain scenario: optimizing a controller-style FSM netlist for clock
// period. Compares the three flows of the paper (FlowSYN-s, TurboMap,
// TurboSYN) on a generated MCNC-class circuit, then validates the winner by
// bounded sequential equivalence against the original.
//
//   $ ./fsm_optimization [gates]        (default 250)

#include <iostream>

#include "base/flow_cli.hpp"
#include "core/flows.hpp"
#include "verify/equiv.hpp"
#include "workloads/generator.hpp"
#include "workloads/table.hpp"

int main(int argc, char** argv) {
  using namespace turbosyn;
  BenchmarkSpec spec;
  spec.name = "controller";
  spec.seed = 4242;
  spec.num_pis = 6;
  spec.num_pos = 4;
  spec.num_gates = 250;
  if (argc > 1 && !parse_int_strict(argv[1], 1, 1 << 20, spec.num_gates)) {
    std::cerr << "error: [gates] expects an integer in [1, " << (1 << 20) << "], got '"
              << argv[1] << "'\n";
    return 2;
  }
  spec.feedback = 0.05;
  const Circuit fsm = generate_fsm_circuit(spec);
  const CircuitStats stats = compute_stats(fsm);
  std::cout << "controller FSM: " << stats.gates << " gates, " << stats.ffs << " FFs, "
            << stats.sccs_with_cycle << " feedback SCCs\n\n";

  FlowOptions options;  // K = 5
  const FlowResult fs = run_flowsyn_s(fsm, options);
  const FlowResult tm = run_turbomap(fsm, options);
  const FlowResult ts = run_turbosyn(fsm, options);

  TextTable table({"flow", "phi", "exact MDR", "LUTs", "FFs", "period", "time (s)"});
  const auto row = [&](const char* name, const FlowResult& r) {
    table.add_row({name, std::to_string(r.phi), r.exact_mdr.to_string(),
                   std::to_string(r.luts), std::to_string(r.ffs), std::to_string(r.period),
                   format_double(r.seconds)});
  };
  row("FlowSYN-s", fs);
  row("TurboMap", tm);
  row("TurboSYN", ts);
  table.print(std::cout);

  // Validate the TurboSYN mapping by co-simulating 64 random runs from the
  // all-zero state. Mapped networks are zero-state safe (DESIGN.md,
  // "Zero-state safety"), so they match from cycle 0 with no warm-up.
  const bool equivalent = sequentially_equivalent_bounded(fsm, ts.mapped);
  std::cout << "\nsimulation check (64 random runs from reset): "
            << (equivalent ? "outputs match" : "MISMATCH") << '\n';
  return equivalent ? 0 : 1;
}
