// The PLD claim (paper Section 4): positive loop detection speeds up the
// label computation by 10~50x over the previous n^2 stopping criterion.
//
// For every suite circuit we first find the minimum feasible ratio phi* with
// TurboMap, then time the *infeasible* probe at phi* - 1 — the case the
// stopping criterion governs — once with PLD (isolation check + 6n bound)
// and once with the n^2 criterion. The per-circuit speedup in label sweeps
// and wall-clock time reproduces the claim's regime.
//
// Usage: pld_speedup_main [--quick] [--audit]

#include <chrono>
#include <cstdlib>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "base/flow_cli.hpp"
#include "core/flows.hpp"
#include "core/labeling.hpp"
#include "verify/audit.hpp"
#include "workloads/generator.hpp"
#include "workloads/table.hpp"

namespace {

struct Probe {
  double seconds = 0.0;
  std::int64_t sweeps = 0;
  bool feasible = false;
  turbosyn::Status status = turbosyn::Status::kOk;
};

Probe run_probe(const turbosyn::Circuit& c, int phi, bool use_pld,
                const turbosyn::RunBudget& budget, std::int64_t sweep_budget = 0) {
  using Clock = std::chrono::steady_clock;
  turbosyn::LabelOptions lo;
  lo.k = 5;
  lo.use_pld = use_pld;
  lo.sweep_budget = sweep_budget;
  lo.budget = budget;
  const auto start = Clock::now();
  const turbosyn::LabelResult r = turbosyn::compute_labels(c, phi, lo);
  Probe p;
  p.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  p.sweeps = r.stats.sweeps;
  p.feasible = r.feasible;
  p.status = r.status;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace turbosyn;
  const FlowCli cli = flow_cli_from_args(argc, argv);
  std::vector<BenchmarkSpec> suite = table1_suite();
  if (cli.quick) suite.resize(6);

  const bool audit = cli.audit;
  FlowOptions opt;
  opt.budget = cli.budget;
  opt.collect_artifacts = audit;
  opt.trace = cli.trace();
  bool audits_ok = true;
  TextTable table({"circuit", "phi*", "PLD sweeps", "PLD s", "n^2 sweeps", "n^2 s",
                   "speedup"});
  double log_speedup = 0.0;
  int rows = 0;
  for (const BenchmarkSpec& spec : suite) {
    const Circuit c = generate_fsm_circuit(spec);
    const FlowResult tm = run_turbomap(c, opt);
    if (audit) audits_ok &= audit_and_report(c, tm, opt, spec.name + ":turbomap", std::cout);
    if (tm.phi <= 1) {
      std::cerr << "[pld] " << spec.name << " skipped (phi* = 1, no infeasible probe)\n";
      continue;
    }
    const Probe with_pld = run_probe(c, tm.phi - 1, /*use_pld=*/true, opt.budget);
    // The n^2 baseline is cut off at 200x the PLD sweep count so large
    // circuits finish; a truncated run makes the reported speedup a lower
    // bound (marked with ">").
    const std::int64_t budget = 200 * std::max<std::int64_t>(1, with_pld.sweeps);
    const Probe without =
        run_probe(c, tm.phi - 1, /*use_pld=*/false, opt.budget, budget);
    // The label engine distinguishes a sweep-budget stop (kDegraded: no
    // infeasibility certificate) from a genuine divergence certificate (kOk),
    // so truncation is read off the status instead of the sweep count.
    const bool truncated = without.status == Status::kDegraded;
    if (!truncated && with_pld.feasible != without.feasible) {
      std::cerr << "[pld] WARNING: criteria disagree on " << spec.name << '\n';
    }
    const double speedup = without.seconds / std::max(1e-9, with_pld.seconds);
    table.add_row({spec.name, std::to_string(tm.phi), std::to_string(with_pld.sweeps),
                   format_double(with_pld.seconds, 3),
                   (truncated ? ">" : "") + std::to_string(without.sweeps),
                   format_double(without.seconds, 3),
                   (truncated ? ">" : "") + format_double(speedup, 1)});
    log_speedup += std::log(speedup);
    ++rows;
    std::cerr << "[pld] " << spec.name << " speedup " << format_double(speedup, 1) << "x\n";
  }

  std::cout << "PLD ablation — infeasible probe at phi*-1: PLD vs n^2 stopping criterion\n";
  table.print(std::cout);
  if (rows > 0) {
    std::cout << "\ngeomean speedup = " << format_double(std::exp(log_speedup / rows), 1)
              << "x   (paper: 10~50x)\n";
  }
  if (!cli.write_trace()) return 1;
  return audits_ok ? 0 : 1;
}
