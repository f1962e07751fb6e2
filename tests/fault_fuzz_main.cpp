// Randomized fault-injection fuzzer: failpoint schedules over the cache,
// driver and batch layers, with bit-identity against a fault-free baseline
// as the oracle.
//
//   $ fault_fuzz_main [--seeds N | --seeds A..B] [--time-budget SECONDS]
//                     [--require-all] [--verbose]
//
// Per seed it generates a small random FSM circuit (workloads/generator),
// computes the fault-free TurboSYN result as the baseline, then arms a
// random failpoint schedule (1..3 sites out of the compiled-in catalog, each
// with a random action, first-hit offset and trigger count) and drives the
// cached flow and the supervised batch runner through it. The invariants,
// for every schedule (DESIGN.md §13):
//   - no crash: no fault escapes as an exception from run_flow_cached() or
//     run_batch(), and the process never dies;
//   - a run (or batch record) that reports kOk is bit-identical to the
//     fault-free baseline — a retried attempt, a cache hit, and a run that
//     absorbed injected faults all produce the same bits;
//   - a run that reports kFailed names its failing stage and is never
//     storable (a degraded result is never a certificate);
//   - after clearing the schedule and running recover(), a clean run over
//     the same (possibly fault-corrupted) cache directory is kOk and
//     bit-identical — no torn entry is ever served, no fault poisons later
//     runs;
//   - every 3rd seed, a forked child crashes (_Exit, no destructors) at the
//     cache rename boundary; the parent verifies the stray tmp is
//     garbage-collected and the store works again afterwards.
//
// Exits nonzero on the first failing seed's summary. --time-budget stops
// early once the budget is spent; with --require-all, not finishing every
// requested seed is itself a failure.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "base/check.hpp"
#include "base/failpoint.hpp"
#include "cache/cached_flow.hpp"
#include "decomp/gate_decomp.hpp"
#include "cache/flow_cache.hpp"
#include "core/flows.hpp"
#include "netlist/blif.hpp"
#include "service/batch_runner.hpp"
#include "workloads/generator.hpp"

namespace {

using namespace turbosyn;
namespace fs = std::filesystem;

struct FuzzConfig {
  std::uint64_t first_seed = 1;
  std::uint64_t last_seed = 50;
  double time_budget_s = 0.0;  // 0 = unlimited
  bool require_all = false;
  bool verbose = false;
};

FuzzConfig parse_args(int argc, char** argv) {
  FuzzConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--seeds" && i + 1 < argc) {
      const std::string v = argv[++i];
      const auto dots = v.find("..");
      if (dots == std::string::npos) {
        cfg.first_seed = 1;
        cfg.last_seed = std::strtoull(v.c_str(), nullptr, 10);
      } else {
        cfg.first_seed = std::strtoull(v.substr(0, dots).c_str(), nullptr, 10);
        cfg.last_seed = std::strtoull(v.substr(dots + 2).c_str(), nullptr, 10);
      }
    } else if (a == "--time-budget" && i + 1 < argc) {
      cfg.time_budget_s = std::strtod(argv[++i], nullptr);
    } else if (a == "--require-all") {
      cfg.require_all = true;
    } else if (a == "--verbose") {
      cfg.verbose = true;
    } else {
      std::cerr << "usage: fault_fuzz_main [--seeds N|A..B] [--time-budget S]"
                   " [--require-all] [--verbose]\n";
      std::exit(2);
    }
  }
  return cfg;
}

BenchmarkSpec spec_for_seed(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 7);
  BenchmarkSpec spec;
  spec.name = "faultfuzz" + std::to_string(seed);
  spec.seed = seed;
  spec.num_pis = 2 + static_cast<int>(rng() % 3);
  spec.num_pos = 2 + static_cast<int>(rng() % 3);
  spec.num_gates = 8 + static_cast<int>(rng() % 14);
  spec.feedback = 0.05 + 0.2 * (static_cast<double>(rng() % 1000) / 1000.0);
  spec.max_fanin = 2 + static_cast<int>(rng() % 3);
  spec.locality = 6 + static_cast<int>(rng() % 9);
  return spec;
}

struct SeedOutcome {
  int checks = 0;
  std::vector<std::string> failures;
};

void expect(SeedOutcome& out, bool ok, const std::string& what) {
  ++out.checks;
  if (!ok) out.failures.push_back(what);
}

std::string fingerprint(const FlowResult& r) {
  return std::to_string(r.phi) + "|" + std::to_string(r.period) + "|" +
         std::to_string(r.pipeline_stages) + "|" + write_blif_string(r.mapped, "fp");
}

/// Sites a cached-flow run can reach, with the actions that make sense at
/// each (throw and delay are legal everywhere; partial only shapes writes).
struct SitePolicy {
  const char* site;
  std::vector<const char*> actions;
};

const std::vector<SitePolicy>& flow_site_pool() {
  static const std::vector<SitePolicy> pool = {
      {"cache.entry.read", {"error", "throw", "delay:0"}},
      {"cache.entry.write", {"error", "throw", "partial:64", "delay:0"}},
      {"cache.entry.rename", {"error", "throw", "delay:0"}},
      {"driver.stage", {"error", "throw", "delay:0"}},
      {"driver.stage.ub-probe", {"error", "throw"}},
      {"driver.stage.phi-search", {"error", "throw"}},
      {"driver.stage.mapgen", {"error", "throw"}},
      {"driver.stage.pack", {"error", "throw"}},
      {"driver.stage.pipeline-retime", {"error", "throw"}},
  };
  return pool;
}

const std::vector<SitePolicy>& batch_site_pool() {
  static const std::vector<SitePolicy> pool = {
      {"batch.job", {"error", "throw"}},
      {"blif.read", {"error"}},
      {"batch.jsonl.write", {"error"}},
      {"driver.stage", {"error", "throw"}},
      {"cache.entry.write", {"error", "partial:32"}},
  };
  return pool;
}

/// One random schedule: 1..3 distinct sites, each with a random action, a
/// random first-hit offset (@1..3) and a bounded trigger count (*1..4) so
/// retried work can eventually get past the fault.
std::string random_schedule(std::mt19937_64& rng, const std::vector<SitePolicy>& pool) {
  const std::size_t n = 1 + rng() % 3;
  std::vector<std::size_t> picks;
  while (picks.size() < n && picks.size() < pool.size()) {
    const std::size_t p = rng() % pool.size();
    if (std::find(picks.begin(), picks.end(), p) == picks.end()) picks.push_back(p);
  }
  std::string spec;
  for (const std::size_t p : picks) {
    const SitePolicy& sp = pool[p];
    if (!spec.empty()) spec += ',';
    spec += sp.site;
    spec += '=';
    spec += sp.actions[rng() % sp.actions.size()];
    spec += '@' + std::to_string(1 + rng() % 3);
    spec += '*' + std::to_string(1 + rng() % 4);
  }
  return spec;
}

/// The flow phase: faulted rounds through a fresh cache, then a clean
/// recovery pass over whatever state the faults left behind.
void fuzz_flow(SeedOutcome& out, const Circuit& c, const FlowOptions& opt,
               const std::string& baseline_fp, const fs::path& dir, std::mt19937_64& rng,
               bool verbose) {
  FlowCache cache(dir.string());
  const std::string spec = random_schedule(rng, flow_site_pool());
  if (verbose) std::cerr << "  flow schedule: " << spec << '\n';
  std::string cfg_error;
  if (!failpoint::configure(spec, &cfg_error)) {
    out.failures.push_back("generated schedule failed to parse: " + spec + ": " + cfg_error);
    return;
  }

  for (int round = 0; round < 2; ++round) {
    CacheRunInfo info;
    FlowResult result;
    try {
      result = run_flow_cached(FlowKind::kTurboSyn, c, opt, &cache, &info);
    } catch (const std::exception& e) {
      expect(out, false, "fault escaped run_flow_cached (schedule " + spec +
                             "): " + e.what());
      continue;
    }
    if (result.status == Status::kOk) {
      expect(out, fingerprint(result) == baseline_fp,
             "kOk result under faults differs from the fault-free baseline (schedule " +
                 spec + ")");
    } else if (result.status == Status::kFailed) {
      expect(out, !result.failed_stage.empty(),
             "kFailed result without a failing stage (schedule " + spec + ")");
      expect(out, !FlowCache::storable(result),
             "a failed run claims to be storable (schedule " + spec + ")");
    }
    // A hit replays real stages through the driver, so an injected stage
    // fault during the replay round is a *contained* kFailed (checked
    // above) — legitimate. What a hit may never do is complete with
    // something other than the exact baseline.
    if (info.hit) {
      expect(out,
             (result.status == Status::kOk && fingerprint(result) == baseline_fp) ||
                 result.status == Status::kFailed,
             "a cache hit served something other than the exact baseline (schedule " +
                 spec + ")");
    }
  }
  failpoint::clear();

  // Whatever the faults tore, recovery plus clean runs must converge back to
  // the exact baseline — the cache never stays poisoned.
  try {
    cache.recover();
  } catch (const std::exception& e) {
    expect(out, false, std::string("recover() threw: ") + e.what());
  }
  for (int round = 0; round < 2; ++round) {
    CacheRunInfo info;
    const FlowResult clean = run_flow_cached(FlowKind::kTurboSyn, c, opt, &cache, &info);
    expect(out, clean.status == Status::kOk && fingerprint(clean) == baseline_fp,
           "clean run after faults (schedule " + spec + ") is not bit-identical");
  }
}

/// The batch phase: one supervised job under a batch-layer schedule, then a
/// clean batch over the same file. run_batch must return in both cases.
void fuzz_batch(SeedOutcome& out, const fs::path& blif_path, const FlowResult& baseline,
                std::mt19937_64& rng, bool verbose) {
  BatchJob job;
  job.name = "fuzz";
  job.path = blif_path.string();
  job.flow = FlowKind::kTurboSyn;
  job.k = 4;
  BatchOptions options;
  options.retry_backoff_ms = 0;  // keep the fuzz loop fast

  const std::string spec = random_schedule(rng, batch_site_pool());
  if (verbose) std::cerr << "  batch schedule: " << spec << '\n';
  std::string cfg_error;
  if (!failpoint::configure(spec, &cfg_error)) {
    out.failures.push_back("generated batch schedule failed to parse: " + spec);
    return;
  }
  std::ostringstream jsonl;
  BatchSummary summary;
  try {
    summary = run_batch({job}, options, &jsonl);
  } catch (const std::exception& e) {
    failpoint::clear();
    expect(out, false, "fault escaped run_batch (schedule " + spec + "): " + e.what());
    return;
  }
  failpoint::clear();

  expect(out, summary.records.size() == 1, "batch lost its record (schedule " + spec + ")");
  if (summary.records.size() == 1) {
    const BatchRecord& record = summary.records[0];
    if (record.ok && record.status == Status::kOk) {
      expect(out,
             record.phi == baseline.phi && record.period == baseline.period &&
                 record.luts == baseline.luts,
             "clean-looking batch record differs from the baseline (schedule " + spec + ")");
    }
    expect(out, record.attempts >= 1 && record.attempts <= options.max_attempts,
           "attempt count out of range (schedule " + spec + ")");
    const bool failed_final = (!record.ok || record.status == Status::kFailed);
    expect(out, record.quarantined == (failed_final && record.attempts >= options.max_attempts),
           "quarantine flag inconsistent with the final attempt (schedule " + spec + ")");
    expect(out, summary.quarantined == (record.quarantined ? 1 : 0),
           "summary quarantine count disagrees with the record (schedule " + spec + ")");
  }
  expect(out, summary.completed + summary.failed + summary.skipped == 1,
         "batch summary does not account for the job (schedule " + spec + ")");

  // Clean batch over the same file: the schedule must leave no residue.
  const BatchSummary clean = run_batch({job}, options);
  expect(out,
         clean.records.size() == 1 && clean.records[0].ok &&
             clean.records[0].status == Status::kOk &&
             clean.records[0].phi == baseline.phi &&
             clean.records[0].period == baseline.period,
         "clean batch after faults (schedule " + spec + ") does not match the baseline");
}

/// The crash phase: a forked child dies (_Exit, no destructors) at the cache
/// rename boundary; the parent verifies GC and that the slot still works.
void fuzz_crash(SeedOutcome& out, const Circuit& c, const FlowOptions& opt,
                const FlowResult& baseline, const fs::path& dir) {
  if (!FlowCache::storable(baseline)) return;  // nothing certified to store
  const CacheKey key = make_cache_key(c, opt, FlowKind::kTurboSyn);
  const CacheEntry entry = FlowCache::entry_from_result(baseline, key);

  const pid_t pid = ::fork();
  if (pid < 0) {
    expect(out, false, "fork failed for the crash drill");
    return;
  }
  if (pid == 0) {
    failpoint::configure("cache.entry.rename=crash:137");
    FlowCache child_cache(dir.string());
    child_cache.store(key, entry);
    std::_Exit(9);  // unreachable unless the failpoint failed to fire
  }
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  expect(out, WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 137,
         "crash-drill child did not die at the rename failpoint");

  FlowCache cache(dir.string());
  expect(out, !cache.lookup(key).has_value(), "a crashed store published an entry");
  const FlowCache::RecoveryStats stats = cache.recover();
  expect(out, stats.stray_tmp >= 1, "recover() missed the crashed writer's tmp file");
  expect(out, cache.store(key, entry) && cache.lookup(key).has_value(),
         "the slot is unusable after crash recovery");
}

SeedOutcome run_seed(std::uint64_t seed, const FuzzConfig& cfg, const fs::path& root) {
  SeedOutcome out;
  const Circuit c = generate_fsm_circuit(spec_for_seed(seed));

  FlowOptions opt;
  opt.k = 4;
  opt.collect_artifacts = true;

  // Fault-free baseline: the oracle every later phase compares against.
  const FlowResult baseline = run_turbosyn(c, opt);
  const std::string baseline_fp = fingerprint(baseline);

  const fs::path seed_dir = root / ("seed" + std::to_string(seed));
  std::filesystem::create_directories(seed_dir);
  std::mt19937_64 rng(seed * 0xd1342543de82ef95ull + 11);

  fuzz_flow(out, c, opt, baseline_fp, seed_dir / "cache", rng, cfg.verbose);
  const fs::path blif_path = seed_dir / "fuzz.blif";
  {
    std::ofstream blif(blif_path);
    blif << write_blif_string(c, "fuzz");
  }
  // The batch oracle must come from the circuit the batch will actually
  // run — the BLIF writer may insert PO buffers, so the file's structure
  // (and hence its LUT count) can differ from the in-memory baseline.
  FlowResult batch_baseline;
  {
    Circuit from_file = read_blif_file(blif_path.string());
    if (!from_file.is_k_bounded(opt.k)) from_file = gate_decompose(from_file, opt.k);
    batch_baseline = run_turbosyn(from_file, opt);
  }
  fuzz_batch(out, blif_path, batch_baseline, rng, cfg.verbose);
  if (seed % 3 == 0) fuzz_crash(out, c, opt, baseline, seed_dir / "crash_cache");

  failpoint::clear();  // belt and braces: never leak a schedule across seeds
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const FuzzConfig cfg = parse_args(argc, argv);
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_s = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };

  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("turbosyn_fault_fuzz." + std::to_string(::getpid()));
  std::filesystem::remove_all(root);

  std::uint64_t seeds_run = 0;
  std::uint64_t seeds_failed = 0;
  std::uint64_t checks = 0;
  bool out_of_time = false;
  for (std::uint64_t seed = cfg.first_seed; seed <= cfg.last_seed; ++seed) {
    if (cfg.time_budget_s > 0 && elapsed_s() > cfg.time_budget_s) {
      out_of_time = true;
      break;
    }
    SeedOutcome out;
    try {
      out = run_seed(seed, cfg, root);
    } catch (const std::exception& e) {
      out.failures.push_back(std::string("unhandled exception: ") + e.what());
      turbosyn::failpoint::clear();
    }
    ++seeds_run;
    checks += static_cast<std::uint64_t>(out.checks);
    if (!out.failures.empty()) {
      ++seeds_failed;
      std::cerr << "[fault_fuzz] seed " << seed << " FAILED:\n";
      for (const std::string& f : out.failures) std::cerr << "  " << f << '\n';
    } else if (cfg.verbose) {
      std::cerr << "[fault_fuzz] seed " << seed << " ok (" << out.checks << " checks)\n";
    }
  }
  std::filesystem::remove_all(root);

  const std::uint64_t requested = cfg.last_seed - cfg.first_seed + 1;
  std::cout << "[fault_fuzz] " << seeds_run << "/" << requested << " seeds, " << checks
            << " checks, " << seeds_failed << " failed, " << static_cast<int>(elapsed_s())
            << "s" << (out_of_time ? " (time budget hit)" : "") << '\n';
  if (seeds_failed > 0) return 1;
  if (cfg.require_all && seeds_run < requested) {
    std::cerr << "[fault_fuzz] --require-all: only " << seeds_run << " of " << requested
              << " seeds ran within the time budget\n";
    return 1;
  }
  return 0;
}
