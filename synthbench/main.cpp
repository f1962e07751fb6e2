// synthbench: end-to-end synthesis benchmark of the TurboMap/TurboSYN flows,
// the flow cache and the mapping daemon. See README.md in this directory.
//
//   synthbench --workload table1_turbomap|small_turbosyn|serve_mixed
//              --seed N --seconds S --trace 0|1
//              --work-dir DIR --expected-dir DIR [--record 0|1]
//
// Prints human-readable lines, then one JSON result line last. Exits 1 when
// any output check failed, 2 on bad arguments or a set-up error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "synthbench: " << why
            << "\nusage: synthbench --workload NAME --seed N --seconds S --trace 0|1"
               " --work-dir DIR --expected-dir DIR [--record 0|1]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(text, &used);
    if (used == text.size() && text[0] != '-') return v;
  } catch (const std::exception&) {
  }
  usage(flag + " expects a non-negative integer, got '" + text + "'");
}

}  // namespace

int main(int argc, char** argv) {
  synthbench::RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = parse_u64(a, v);
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(a, v));
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace expects 0 or 1");
      o.trace = v == "1";
    } else if (a == "--work-dir") {
      o.work_dir = v;
    } else if (a == "--expected-dir") {
      o.expected_dir = v;
    } else if (a == "--record") {
      if (v != "0" && v != "1") usage("--record expects 0 or 1");
      o.record = v == "1";
    } else {
      usage("unknown flag " + a);
    }
  }
  if (!have_workload || o.work_dir.empty() || o.expected_dir.empty()) {
    usage("--workload, --work-dir and --expected-dir are required");
  }

  synthbench::RunReport report;
  try {
    report = synthbench::run_workload(o);
  } catch (const std::exception& e) {
    std::cerr << "synthbench: " << e.what() << "\n";
    return 2;
  }

  std::cout << "synthbench workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << (o.trace ? 1 : 0)
            << " threads=" << report.threads << "\n";
  for (const std::string& note : report.notes) std::cout << "  " << note << "\n";
  bool names_ok = true;
  for (const synthbench::Metric& m : report.metrics) {
    names_ok = names_ok && synthbench::valid_metric_name(m.name);
    char line[160];
    std::snprintf(line, sizeof(line), "  %-28s %14.6f %s", m.name.c_str(), m.value, m.unit.c_str());
    std::cout << line;
    if (m.name.rfind("latency_", 0) == 0) std::cout << "  (n=" << report.latency_samples << ")";
    std::cout << "\n";
  }
  const synthbench::Tally& t = report.tally;
  std::cout << "  error_rate " << (t.attempted() > 0 ? static_cast<double>(t.failed()) / static_cast<double>(t.attempted()) : 0.0)
            << " (failed " << t.failed() << " / attempted " << t.attempted() << ")\n";
  for (const std::string& r : t.reasons()) std::cout << "  FAILED " << r << "\n";
  bool correct = t.failed() == 0 && t.attempted() > 0 && names_ok;
  for (const std::string& note : report.notes) {
    if (note.rfind("error:", 0) == 0) correct = false;
  }
  std::cout << synthbench::result_json(correct, std::max<std::int64_t>(t.attempted(), 1), t.failed(),
                                       report.metrics)
            << std::endl;
  return correct ? 0 : 1;
}
