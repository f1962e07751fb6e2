#include "base/flow_cli.hpp"

#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "base/budget_cli.hpp"
#include "base/failpoint.hpp"
#include "base/trace.hpp"

namespace turbosyn {

bool parse_int_strict(std::string_view text, long long lo, long long hi, long long& out) {
  if (text.empty()) return false;
  std::size_t pos = 0;
  bool negative = false;
  if (text[0] == '-') {
    negative = true;
    pos = 1;
  }
  if (pos >= text.size()) return false;
  long long value = 0;
  for (; pos < text.size(); ++pos) {
    const char ch = text[pos];
    if (ch < '0' || ch > '9') return false;
    // Overflow-safe accumulate against the relevant bound.
    const int digit = ch - '0';
    if (negative) {
      if (value < (std::numeric_limits<long long>::min() + digit) / 10) return false;
      value = value * 10 - digit;
    } else {
      if (value > (std::numeric_limits<long long>::max() - digit) / 10) return false;
      value = value * 10 + digit;
    }
  }
  if (value < lo || value > hi) return false;
  out = value;
  return true;
}

bool parse_int_strict(std::string_view text, int lo, int hi, int& out) {
  long long wide = 0;
  if (!parse_int_strict(text, static_cast<long long>(lo), static_cast<long long>(hi), wide)) {
    return false;
  }
  out = static_cast<int>(wide);
  return true;
}

FlowCli::FlowCli() = default;
FlowCli::~FlowCli() = default;
FlowCli::FlowCli(FlowCli&&) noexcept = default;
FlowCli& FlowCli::operator=(FlowCli&&) noexcept = default;

bool FlowCli::write_trace() const {
  if (trace_json_path.empty()) return true;
  if (!trace_sink_->write_json_file(trace_json_path)) {
    std::cerr << "error: cannot write trace to " << trace_json_path << '\n';
    return false;
  }
  return true;
}

FlowCli flow_cli_from_args(int argc, char** argv) {
  FlowCli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--audit") {
      cli.audit = true;
    } else if (a == "--quick") {
      cli.quick = true;
    } else if (a == "--full") {
      cli.full = true;
    } else if (a.rfind("--trace-json=", 0) == 0) {
      cli.trace_json_path = a.substr(std::string("--trace-json=").size());
    } else if (a == "--trace-json" && i + 1 < argc) {
      cli.trace_json_path = argv[++i];
    } else if (a.rfind("--cache-dir=", 0) == 0) {
      cli.cache_dir = a.substr(std::string("--cache-dir=").size());
    } else if (a == "--cache-dir" && i + 1 < argc) {
      cli.cache_dir = argv[++i];
    } else if (a.rfind("--failpoints=", 0) == 0) {
      cli.failpoints = a.substr(std::string("--failpoints=").size());
    } else if (a == "--failpoints" && i + 1 < argc) {
      cli.failpoints = argv[++i];
    } else if (a.rfind("--portfolio=", 0) == 0) {
      cli.portfolio = a.substr(std::string("--portfolio=").size());
    } else if (a == "--portfolio" && i + 1 < argc) {
      cli.portfolio = argv[++i];
    } else if (a == "--engines-list") {
      cli.engines_list = true;
    }
  }
  // Env first, flag second: a flag clause overrides the same site from the
  // environment. A malformed spec is a usage error, not a silent no-fault run.
  if (!failpoint::configure_from_env()) std::exit(2);
  if (!cli.failpoints.empty()) {
    std::string error;
    if (!failpoint::configure(cli.failpoints, &error)) {
      std::cerr << "error: --failpoints: " << error << '\n';
      std::exit(2);
    }
  }
  cli.budget = budget_from_cli(argc, argv);
  if (!cli.trace_json_path.empty()) cli.trace_sink_ = std::make_unique<TraceSink>();
  return cli;
}

std::string flow_cli_help() {
  std::string help =
      "[--audit] [--quick | --full]\n"
      "[--trace-json=PATH] (per-stage/per-probe trace of the run)\n"
      "[--cache-dir=PATH] (persistent flow-artifact cache)\n"
      "[--failpoints=SPEC] (deterministic fault injection, e.g. "
      "cache.entry.write=error*2; see base/failpoint.hpp)\n"
      "[--portfolio=E1,E2,...] (race registry engines, keep the best certified "
      "result)\n"
      "[--engines-list] (print the engine registry and exit)\n";
  help += budget_cli_help();
  return help;
}

}  // namespace turbosyn
