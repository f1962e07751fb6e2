// Batch multi-circuit scheduler, whole circuits across cores:
//
//   $ ./batch_flow manifest.txt [--jsonl PATH] [--workers N]
//                  [--per-circuit-deadline-ms N]
//                  [--cache-dir=PATH]  (shared persistent artifact cache)
//                  [--deadline-ms N] ... (whole-batch run budgets)
//
// The manifest lists one circuit per line: `path.blif [flow] [K]` where
// `flow` is turbomap | turbosyn | flowsyn_s | turbomap_period (default
// turbosyn) or a comma-separated engine list ("turbosyn,turbomap") raced as
// a sequential portfolio, and K defaults to 5; `#` comments and blank lines
// are ignored.
// Each circuit runs its flow sequentially while run_batch's lanes (the
// caller plus up to --workers helper threads) claim whole circuits; one
// JSONL record streams out per circuit as it finishes. Ctrl-C drains the
// batch cooperatively: running circuits return best-so-far mappings, queued
// circuits are skipped.
//
// With no manifest, a demo batch of the embedded sample circuits is written
// to a temporary directory and run twice — cold, then warm through the
// cache — to show the artifact store at work.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "base/check.hpp"
#include "base/flow_cli.hpp"
#include "service/batch_runner.hpp"
#include "workloads/samples.hpp"

namespace {

using namespace turbosyn;

void print_summary(const BatchSummary& summary) {
  std::cout << "batch: " << summary.completed << " completed, " << summary.failed
            << " failed, " << summary.skipped << " skipped, " << summary.cache_hits
            << " cache hits, " << summary.retries << " retries, " << summary.quarantined
            << " quarantined, " << summary.seconds << " s\n";
  for (const BatchRecord& record : summary.records) {
    std::cout << "  " << record.name << " ["
              << (record.engine.empty() ? flow_kind_name(record.flow) : "portfolio")
              << " K=" << record.k << "] ";
    if (record.skipped) {
      std::cout << "skipped\n";
    } else if (!record.ok || record.status == Status::kFailed) {
      std::cout << "failed: " << record.error;
      if (!record.failed_stage.empty()) std::cout << " (stage " << record.failed_stage << ')';
      if (record.quarantined) {
        std::cout << " [quarantined after " << record.attempts << " attempt(s)]";
      }
      std::cout << '\n';
    } else {
      std::cout << "phi=" << record.phi << " luts=" << record.luts
                << " period=" << record.period
                << (record.engine.empty() ? "" : " winner=" + record.engine)
                << (record.cache_hit ? " (cache hit)" : "")
                << (record.attempts > 1 ? " (retried)" : "") << " " << record.seconds
                << " s\n";
    }
  }
  if (!summary.poisoned.empty()) {
    std::cout << "  poison list:";
    for (const std::string& name : summary.poisoned) std::cout << ' ' << name;
    std::cout << '\n';
  }
}

/// Writes the embedded sample circuits as BLIF files plus a manifest, and
/// returns the manifest path.
std::string write_demo_batch(const std::filesystem::path& dir) {
  const std::vector<std::pair<std::string, std::string>> samples = {
      {"counter3", counter3_blif()},
      {"pattern_fsm", pattern_fsm_blif()},
      {"traffic_light", traffic_light_blif()},
      {"gray_counter", gray_counter_blif()},
  };
  std::filesystem::create_directories(dir);
  const std::filesystem::path manifest_path = dir / "manifest.txt";
  std::ofstream manifest(manifest_path);
  manifest << "# demo batch: embedded sample circuits\n";
  for (const auto& [name, blif] : samples) {
    const std::filesystem::path blif_path = dir / (name + ".blif");
    std::ofstream out(blif_path);
    out << blif;
    manifest << blif_path.string() << " turbosyn 4\n";
  }
  return manifest_path.string();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const FlowCli cli = flow_cli_from_args(argc, argv);
    std::string manifest_path;
    std::string jsonl_path;
    BatchOptions options;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--jsonl" && i + 1 < argc) {
        jsonl_path = argv[++i];
      } else if (a.rfind("--jsonl=", 0) == 0) {
        jsonl_path = a.substr(std::string("--jsonl=").size());
      } else if (a == "--workers" && i + 1 < argc) {
        // Strict: "--workers abc" must not stoi-crash or silently misparse.
        if (!parse_int_strict(argv[++i], 0, 1 << 16, options.num_workers)) {
          std::cerr << "error: --workers expects an integer in [0, " << (1 << 16)
                    << "], got '" << argv[i] << "'\n";
          return 2;
        }
      } else if (a == "--per-circuit-deadline-ms" && i + 1 < argc) {
        long long deadline = 0;
        if (!parse_int_strict(argv[++i], 0, 1LL << 40, deadline)) {
          std::cerr << "error: --per-circuit-deadline-ms expects an integer in [0, "
                    << (1LL << 40) << "], got '" << argv[i] << "'\n";
          return 2;
        }
        options.per_circuit_deadline_ms = deadline;
      } else if (a.rfind("--", 0) == 0) {
        if (a.find('=') == std::string::npos && i + 1 < argc) ++i;  // flag value
      } else {
        manifest_path = a;
      }
    }

    const bool demo = manifest_path.empty();
    std::filesystem::path demo_dir;
    if (demo) {
      demo_dir = std::filesystem::temp_directory_path() / "turbosyn_batch_demo";
      manifest_path = write_demo_batch(demo_dir);
      std::cout << "no manifest given; demo batch written to " << demo_dir << "\n\n";
    }
    const std::vector<BatchJob> jobs = read_batch_manifest_file(manifest_path);
    TS_CHECK(!jobs.empty(), "manifest '" << manifest_path << "' lists no circuits");

    std::optional<FlowCache> cache;
    std::string cache_dir = cli.cache_dir;
    if (demo && cache_dir.empty()) cache_dir = (demo_dir / "cache").string();
    if (!cache_dir.empty()) {
      cache.emplace(cache_dir);
      // Crash recovery before the first lookup: GC stray tmp files and torn
      // entries a killed run left behind.
      const FlowCache::RecoveryStats rec = cache->recover();
      if (rec.total() > 0) {
        std::cout << "cache recovery: " << rec.stray_tmp << " stray tmp, "
                  << rec.torn_entries << " torn entries removed\n";
      }
    }
    options.flow.budget = cli.budget;
    options.flow.trace = cli.trace();
    options.cache = cache ? &*cache : nullptr;
    options.cancel = &global_cancel_token();  // Ctrl-C drains the batch

    std::ofstream jsonl_file;
    if (!jsonl_path.empty()) {
      jsonl_file.open(jsonl_path);
      TS_CHECK(jsonl_file.good(), "cannot open JSONL sink '" << jsonl_path << "'");
    }
    std::ostream* jsonl = jsonl_path.empty() ? nullptr : &jsonl_file;

    std::cout << "cold run (" << jobs.size() << " circuits):\n";
    print_summary(run_batch(jobs, options, jsonl));
    if (demo) {
      std::cout << "\nwarm run (same circuits through the cache at " << cache_dir << "):\n";
      print_summary(run_batch(jobs, options, jsonl));
    }
    if (!jsonl_path.empty()) std::cout << "\nwrote JSONL records to " << jsonl_path << '\n';
    if (!cli.write_trace()) return 1;
  } catch (const turbosyn::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
