#pragma once
// The three workloads and the checks every output goes through.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/flows.hpp"
#include "netlist/circuit.hpp"

namespace synthbench {

struct RunOptions {
  std::string workload;       // table1_turbomap | small_turbosyn | serve_mixed
  std::uint64_t seed = 0;
  double seconds = 20.0;      // timed window (runs also reach the sample floor)
  bool trace = false;         // per-layer run instead of end-to-end
  std::string work_dir;       // scratch directory for the cache and socket
  std::string expected_dir;   // where expected-results files live
  bool record = false;        // write the expected-results file instead of checking it
};

struct RunReport {
  std::vector<Metric> metrics;  // end-to-end, or per-layer with trace
  Tally tally;
  int threads = 0;              // label-engine threads of every flow
  std::int64_t latency_samples = 0;
  std::vector<std::string> notes;  // human-readable lines printed before the result
};

const std::vector<std::string>& workload_names();

/// Label-engine threads of every flow a workload runs. table1_turbomap uses
/// the CLI default (num_threads 0: every core). small_turbosyn runs
/// sequentially: on 16-40-gate circuits a parallel probe's wall time is
/// dominated by pool wake-ups, which made the same run's median latency
/// swing by a third. serve_mixed's flows run sequentially inside the
/// daemon's workers, whatever the request says.
int workload_threads(const std::string& workload);

/// Runs one workload as configured. Throws on set-up errors (unknown
/// workload, unusable work directory, server that cannot start).
RunReport run_workload(const RunOptions& options);

/// φ, LUTs and FFs of one circuit, as recorded in an expected-results file.
struct Qor {
  int phi = 0;
  int luts = 0;
  std::int64_t ffs = 0;
  bool operator==(const Qor&) const = default;
};

/// Expected results: one "<id> <phi> <luts> <ffs>" line per circuit after a
/// '#' header. Missing file: nullopt.
std::optional<std::map<std::string, Qor>> load_expected(const std::string& path);
bool write_expected(const std::string& path, const std::string& header,
                    const std::map<std::string, Qor>& entries);
/// "<workload>.seed<S>.ops<N>.threads<T>.txt": results depend on all four.
std::string expected_file_name(const RunOptions& o);

/// Checks one direct flow result: status ok, audit_flow passes, and it
/// matches `expected` when given. Counts it into `tally` either way;
/// returns true when it passed.
bool check_flow_result(const std::string& id, const turbosyn::Circuit& input,
                       const turbosyn::FlowResult& result, const turbosyn::FlowOptions& options,
                       const Qor* expected, Tally& tally, double* audit_seconds = nullptr);

/// Checks one daemon reply line against the reference result of its circuit:
/// a "result" reply, ok, status "ok", and φ/LUTs/FFs equal to `reference`.
/// Counts it into `tally`; returns true when it passed.
bool check_reply(const std::string& reply, const Qor& reference, Tally& tally);

}  // namespace synthbench
