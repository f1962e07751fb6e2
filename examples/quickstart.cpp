// Quickstart: parse a BLIF FSM, run the full TurboSYN flow, inspect the
// result, and write the mapped network back out as BLIF.
//
//   $ ./quickstart [--audit]       (re-verify every invariant of the result)
//                  [--trace-json=PATH]  (per-stage/per-probe trace of the run)
//                  [--cache-dir=PATH]   (reuse flow artifacts across runs)
//                  [--deadline-ms N] [--decomp-attempt-budget N] ...  (run budgets)
//
// The circuit is a 3-bit counter with enable (embedded as a string); the
// same code works for any SIS-style BLIF file via read_blif_file().

#include <iostream>
#include <optional>
#include <string>

#include "base/flow_cli.hpp"
#include "cache/cached_flow.hpp"
#include "core/flows.hpp"
#include "netlist/blif.hpp"
#include "retime/howard.hpp"
#include "verify/audit.hpp"
#include "workloads/samples.hpp"

int main(int argc, char** argv) {
  using namespace turbosyn;
  const FlowCli cli = flow_cli_from_args(argc, argv);

  // 1. Load a sequential circuit (latches become edge weights of the
  //    retiming graph).
  const Circuit counter = read_blif_string(counter3_blif());
  const CircuitStats stats = compute_stats(counter);
  std::cout << "input: " << stats.gates << " gates, " << stats.ffs << " FFs, max fanin "
            << stats.max_fanin << ", input MDR ratio " << circuit_mdr_howard(counter).ratio
            << "\n\n";

  // 2. Map for minimum MDR ratio with TurboSYN (K-LUTs, retiming-aware,
  //    with sequential functional decomposition).
  FlowOptions options;
  options.k = 4;
  options.budget = cli.budget;  // unlimited unless budget flags were given
  // Step 5 prints the mapped network, which a cache hit only regenerates for
  // a caller that collects artifacts.
  options.collect_artifacts = true;
  options.trace = cli.trace();  // nullptr unless --trace-json was given
  std::optional<FlowCache> cache;  // --cache-dir: persistent artifact store
  if (!cli.cache_dir.empty()) {
    cache.emplace(cli.cache_dir);
    cache->recover();  // GC leftovers of any earlier crashed run
  }
  CacheRunInfo cache_info;
  const FlowResult result = run_flow_cached(FlowKind::kTurboSyn, counter, options,
                                            cache ? &*cache : nullptr, &cache_info);

  std::cout << "TurboSYN result:\n";
  std::cout << "  status                 = " << status_name(result.status)
            << (result.timed_out ? " (stopped early; best-so-far result)" : "") << '\n';
  std::cout << "  minimum ratio phi      = " << result.phi << '\n';
  std::cout << "  exact MDR of mapping   = " << result.exact_mdr << '\n';
  std::cout << "  LUTs / FFs             = " << result.luts << " / " << result.ffs << '\n';
  std::cout << "  clock period after pipelining + retiming = " << result.period << " (with "
            << result.pipeline_stages << " pipeline stages)\n";
  std::cout << "  label sweeps           = " << result.stats.sweeps << "\n";
  if (cache) {
    std::cout << "  cache                  = "
              << (cache_info.hit ? "hit (search replayed from the artifact store)"
                                 : cache_info.stored ? "miss (entry stored)" : "miss")
              << '\n';
  }

  // 3. Each flow carries a per-stage wall-time/counter breakdown.
  std::cout << "  stage breakdown        =";
  for (const StageMetric& stage : result.stage_metrics.stages) {
    std::cout << ' ' << stage.name;
  }
  std::cout << " (" << result.probes.size() << " label probes)\n\n";

  // 4. Optionally re-verify every claimed invariant of the result.
  if (cli.audit && !audit_and_report(counter, result, options, "turbosyn", std::cout)) return 1;

  // 5. The mapped network is a Circuit like any other: write it as BLIF.
  std::cout << "mapped network as BLIF:\n" << write_blif_string(result.mapped, "counter3_mapped");

  // 6. With --trace-json=PATH, dump the span tree the flow recorded.
  if (!cli.write_trace()) return 1;
  if (!cli.trace_json_path.empty()) {
    std::cout << "\nwrote trace to " << cli.trace_json_path << '\n';
  }
  return 0;
}
