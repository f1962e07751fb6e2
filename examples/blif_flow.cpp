// Command-line synthesis flow over BLIF files:
//
//   $ ./blif_flow input.blif output.blif [K] [turbosyn|turbomap|flowsyn_s|turbomap_period]
//               [--portfolio=E1,E2,...]  (race registry engines, keep the best
//                                         certified result; overrides the
//                                         positional flow name)
//               [--engines-list]  (print the engine registry and exit)
//               [--audit]  (re-verify every invariant of the result)
//               [--trace-json=PATH]  (per-stage/per-probe trace of the run)
//               [--cache-dir=PATH]  (persistent flow-artifact cache: a repeat
//                                    run of an unchanged circuit replays its
//                                    probe ledger instead of recomputing)
//               [--deadline-ms N] [--decomp-attempt-budget N] ...  (run budgets)
//
// Reads a SIS-style BLIF netlist, decomposes wide gates to make it
// K-bounded, runs the selected flow, reports the metrics and writes the
// mapped LUT network as BLIF. With no arguments it demonstrates the flow on
// the embedded pattern-detector FSM. Ctrl-C cancels cooperatively: the flow
// returns its best-so-far mapping instead of aborting.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "base/check.hpp"
#include "base/flow_cli.hpp"
#include "cache/cached_flow.hpp"
#include "core/engines.hpp"
#include "core/flows.hpp"
#include "core/portfolio.hpp"
#include "decomp/gate_decomp.hpp"
#include "netlist/blif.hpp"
#include "retime/howard.hpp"
#include "verify/audit.hpp"
#include "workloads/samples.hpp"

int main(int argc, char** argv) {
  using namespace turbosyn;
  try {
    // Flags ("--flag value", "--flag=value" and the value-less --audit) may
    // appear anywhere; everything else is positional.
    std::vector<std::string> pos;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--", 0) == 0) {
        if (a != "--audit" && a.find('=') == std::string::npos && i + 1 < argc) {
          ++i;  // skip the flag's value
        }
        continue;
      }
      pos.push_back(a);
    }
    const FlowCli cli = flow_cli_from_args(argc, argv);
    if (cli.engines_list) {
      std::cout << engine_list_text();
      return 0;
    }
    std::vector<const EngineSpec*> engines;
    if (!cli.portfolio.empty()) {
      const std::string invalid = parse_portfolio(cli.portfolio, engines);
      if (!invalid.empty()) {
        std::cerr << "error: --portfolio: " << invalid << '\n';
        return 2;
      }
    }
    Circuit input =
        !pos.empty() ? read_blif_file(pos[0]) : read_blif_string(pattern_fsm_blif());
    const int k = pos.size() > 2 ? std::stoi(pos[2]) : 5;
    const std::string flow = pos.size() > 3 ? pos[3] : "turbosyn";
    FlowKind kind = FlowKind::kTurboSyn;
    if (engines.empty()) {
      TS_CHECK(flow_kind_from_name(flow, kind),
               "unknown flow '" << flow
                                << "' (expected turbomap|turbosyn|flowsyn_s|turbomap_period)");
    }

    if (!input.is_k_bounded(k)) {
      std::cout << "decomposing gates wider than " << k << " inputs\n";
      input = gate_decompose(input, k);
    }
    const CircuitStats stats = compute_stats(input);
    std::cout << "input: " << stats.gates << " gates, " << stats.ffs << " FFs, MDR "
              << circuit_mdr_howard(input).ratio << '\n';

    FlowOptions options;
    options.k = k;
    options.budget = cli.budget;
    // The mapped network is always written below, and a cache hit only
    // regenerates it for a caller that collects artifacts.
    options.collect_artifacts = true;
    options.trace = cli.trace();
    std::optional<FlowCache> cache;
    if (!cli.cache_dir.empty()) {
      cache.emplace(cli.cache_dir);
      cache->recover();  // GC leftovers of any earlier crashed run
    }
    CacheRunInfo cache_info;
    const FlowResult result =
        engines.empty()
            ? run_flow_cached(kind, input, options, cache ? &*cache : nullptr, &cache_info)
            : run_portfolio_cached(engines, input, options, cache ? &*cache : nullptr,
                                   &cache_info);
    if (cache) {
      std::cout << "cache: " << (cache_info.hit ? "hit (probe ledger replayed)"
                                                : cache_info.stored ? "miss (stored)" : "miss")
                << " in " << cli.cache_dir << '\n';
    }
    const std::string tag = engines.empty() ? flow : "portfolio";
    if (!engines.empty()) {
      std::cout << "portfolio: winner " << result.engine << " among " << cli.portfolio << '\n';
      for (const EngineRun& row : result.portfolio) {
        std::cout << "  " << row.name << ": status " << status_name(row.status)
                  << (row.certified ? ", certified phi " + std::to_string(row.phi) : "")
                  << ", " << row.seconds << " s\n";
      }
    }
    std::cout << tag << ": phi = " << result.phi << ", exact MDR = " << result.exact_mdr
              << ", " << result.luts << " LUTs, " << result.ffs << " FFs, period "
              << result.period << " after pipelining, " << result.seconds << " s, status "
              << status_name(result.status) << '\n';
    if (result.timed_out) {
      std::cout << "note: run stopped early; the mapping above is the best found so far\n";
    }
    if (!result.degraded_nodes.empty()) {
      std::cout << "note: " << result.degraded_nodes.size()
                << " node(s) degraded to plain K-cut labels under resource ceilings\n";
    }
    if (cli.audit) {
      // A portfolio result is audited under the winner's effective options
      // (its registry deltas applied), since those produced the artifacts.
      FlowOptions audit_options = options;
      if (!engines.empty()) {
        const EngineSpec* winner = find_engine(result.engine);
        if (winner != nullptr) audit_options = winner->apply(options);
      }
      if (!audit_and_report(input, result, audit_options, tag, std::cout)) return 1;
    }

    if (pos.size() > 1) {
      write_blif_file(result.mapped, pos[1], "mapped");
      std::cout << "wrote " << pos[1] << '\n';
    } else {
      std::cout << write_blif_string(result.mapped, "mapped");
    }
    if (!cli.write_trace()) return 1;
  } catch (const turbosyn::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
