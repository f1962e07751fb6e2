// Differential flow fuzzer: random sequential circuits through every flow,
// with the invariant auditor as the oracle.
//
//   $ flow_fuzz_main [--seeds N | --seeds A..B] [--time-budget SECONDS]
//                    [--through-cache] [--portfolio]
//                    [--require-all] [--verbose]
//
// Per seed it generates a small random FSM circuit (workloads/generator),
// runs TurboMap, TurboSYN and the clock-period engine (turbomap_period), and
// checks:
//   - every flow result passes the full stage-by-stage audit
//     (structure, interface, labels, cuts, MDR, period, equivalence);
//   - replaying a run with the same options is bit-identical (every 4th
//     seed);
//   - budget-degraded runs (every 3rd seed: a tight decomposition-attempt
//     ceiling) still audit clean and never beat the unlimited phi;
//   - deadline-interrupted runs (every 5th seed: 0 ms deadline) still audit
//     clean — the identity fallback must stay equivalent;
//   - TurboMap and TurboSYN mappings are pairwise bounded-equivalent;
//   - warm-start oracle: one LabelEngine driven through each flow's probe
//     sequence (plain mode from TurboMap, decomposition mode from TurboSYN)
//     returns, at every φ, the same verdict, status and labels as a fresh
//     compute_labels at that φ, and reproduces the verdict and label hash
//     the flow's ledger recorded;
//   - with --through-cache, every seed also replays TurboSYN through a fresh
//     flow-artifact cache (src/cache): the populate run and the cache-hit run
//     must both be bit-identical with the uncached run, the hit's probe
//     ledger must contain only imported records, and the hit must pass the
//     full audit; a further hit with collect_artifacts off must serve the
//     uncached run's summary (φ, period, stages, LUTs, FFs, exact MDR) over
//     an all-imported ledger, without regenerating the mapping. The
//     cache's hot tier is resized per seed from measured entry sizes so that
//     it holds only one of the seed's TurboSYN and TurboMap entries: the
//     replay above is a memory hit, the TurboSYN entry is then evicted, and
//     the replay that follows is a disk re-hit whose re-admission evicts
//     again — each of those runs must match the uncached run too;
//   - with --portfolio, every seed also races a rotating engine portfolio
//     (core/portfolio): the race must be bit-identical to the best
//     standalone engine under the shared selection order, every row must
//     match its engine's standalone run, and the result must pass the full
//     audit including the "portfolio" check.
//     Every --portfolio run also races turbomap,turbosyn,flowsyn_s at K = 5
//     on three fixed circuits where FlowSYN-s alone certifies the smallest
//     φ (tiny2, tiny6, bbara), which random seeds rarely produce.
//
// Exits nonzero on the first failing seed's summary. --time-budget stops
// early once the budget is spent; with --require-all, not finishing every
// requested seed is itself a failure (CI uses this to keep the box honest).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "base/check.hpp"
#include "cache/cached_flow.hpp"
#include "core/engines.hpp"
#include "core/flows.hpp"
#include "core/labeling.hpp"
#include "core/portfolio.hpp"
#include "netlist/blif.hpp"
#include "verify/audit.hpp"
#include "verify/equiv.hpp"
#include "workloads/generator.hpp"

namespace {

using namespace turbosyn;

struct FuzzConfig {
  std::uint64_t first_seed = 1;
  std::uint64_t last_seed = 50;
  double time_budget_s = 0.0;  // 0 = unlimited
  bool through_cache = false;  // replay every seed through a flow cache
  bool portfolio = false;      // race a rotating engine portfolio per seed
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
    } else if (a == "--through-cache") {
      cfg.through_cache = true;
    } else if (a == "--portfolio") {
      cfg.portfolio = true;
    } else if (a == "--require-all") {
      cfg.require_all = true;
    } else if (a == "--verbose") {
      cfg.verbose = true;
    } else {
      std::cerr << "usage: flow_fuzz_main [--seeds N|A..B] [--time-budget S]"
                   " [--through-cache] [--portfolio] [--require-all]"
                   " [--verbose]\n";
      std::exit(2);
    }
  }
  return cfg;
}

/// Small random spec: the circuits stay tiny so the full audit (including
/// bounded equivalence) fits dozens of seeds into a CI time box.
BenchmarkSpec spec_for_seed(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  BenchmarkSpec spec;
  spec.name = "fuzz" + std::to_string(seed);
  spec.seed = seed;
  spec.num_pis = 2 + static_cast<int>(rng() % 4);
  spec.num_pos = 2 + static_cast<int>(rng() % 4);
  spec.num_gates = 10 + static_cast<int>(rng() % 22);
  spec.feedback = 0.05 + 0.25 * (static_cast<double>(rng() % 1000) / 1000.0);
  spec.max_fanin = 2 + static_cast<int>(rng() % 3);
  spec.locality = 6 + static_cast<int>(rng() % 13);
  spec.exotic_gate_ratio = 0.35 * (static_cast<double>(rng() % 1000) / 1000.0);
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

void audit_into(SeedOutcome& out, const Circuit& input, const FlowResult& result,
                const FlowOptions& opt, const std::string& tag, std::uint64_t seed,
                bool verbose) {
  AuditOptions audit;
  audit.seq_cycles = 128;
  audit.seq_seed = seed;
  const AuditReport report = audit_flow(input, result, opt, audit);
  ++out.checks;
  if (!report.passed()) {
    out.failures.push_back("audit " + tag + " failed:\n" + report.breakdown());
  } else if (verbose) {
    std::cerr << "  audit " << tag << ": PASS (" << report.checks.size() << " stages)\n";
  }
}

std::string fingerprint(const FlowResult& r) {
  return std::to_string(r.phi) + "|" + std::to_string(r.period) + "|" +
         std::to_string(r.pipeline_stages) + "|" + write_blif_string(r.mapped, "fp");
}

/// What a cache hit served without artifacts must reproduce: the summary.
std::string summary_fingerprint(const FlowResult& r) {
  std::ostringstream os;
  os << r.phi << '|' << r.period << '|' << r.pipeline_stages << '|' << r.luts << '|' << r.ffs
     << '|' << r.exact_mdr;
  return os.str();
}

/// A non-empty ledger of imported records only: a hit probed nothing.
bool all_imported(const FlowResult& r) {
  bool all = !r.probes.empty();
  for (const ProbeRecord& probe : r.probes) all = all && probe.imported;
  return all;
}

/// A cache hit with collect_artifacts off must serve the uncached run's
/// summary over the same all-imported ledger, with no mapped network.
void expect_summary_hit(SeedOutcome& out, const FlowResult& hit, const CacheRunInfo& info,
                        const FlowResult& uncached, const std::string& tag) {
  expect(out, info.hit, tag + ": summary run missed the cache");
  expect(out, summary_fingerprint(hit) == summary_fingerprint(uncached),
         tag + ": summary hit differs from the uncached run");
  expect(out, all_imported(hit) && hit.probes.size() == uncached.probes.size(),
         tag + ": summary hit ledger is not the imported uncached ledger");
  expect(out, hit.mapped.num_nodes() == 0 && !hit.artifacts.valid,
         tag + ": summary hit regenerated the mapping");
}

/// Portfolio race vs the "run everything, pick the best" oracle: the race
/// must be bit-identical to the best standalone engine under the shared
/// selection order, every row must report its engine's standalone (φ,
/// status, LUTs), and the race must audit clean (the "portfolio" check
/// re-verifies the table).
void check_portfolio(SeedOutcome& out, const Circuit& c, const FlowOptions& opt,
                     const std::vector<std::string>& names, std::uint64_t seed, bool verbose) {
  std::string joined;
  for (const std::string& n : names) joined += (joined.empty() ? "" : ",") + n;
  std::vector<const EngineSpec*> engines;
  const std::string invalid = parse_portfolio(joined, engines);
  expect(out, invalid.empty(), "portfolio spec rejected: " + invalid);

  std::vector<FlowResult> standalone;
  for (const EngineSpec* spec : engines) standalone.push_back(run_engine(*spec, c, opt));
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < engines.size(); ++i) {
    if (standalone[i].status != Status::kOk) continue;
    if (!best || portfolio_prefers(standalone[i].phi, engines[i]->strength, i,
                                   standalone[*best].phi, engines[*best]->strength, *best)) {
      best = i;
    }
  }
  expect(out, best.has_value(), "portfolio oracle: no standalone engine certified");
  if (!best) return;
  const FlowResult race = run_portfolio(engines, c, opt);
  expect(out, race.engine == engines[*best]->name,
         "race winner " + race.engine + " != oracle " + engines[*best]->name);
  expect(out, fingerprint(race) == fingerprint(standalone[*best]),
         "race differs from the best standalone engine");
  expect(out, race.portfolio.size() == engines.size(), "race table has the wrong row count");
  for (std::size_t i = 0; i < race.portfolio.size() && i < engines.size(); ++i) {
    const EngineRun& row = race.portfolio[i];
    expect(out,
           row.name == engines[i]->name && row.phi == standalone[i].phi &&
               row.status == standalone[i].status && row.luts == standalone[i].luts,
           "race row " + row.name + " differs from its standalone run");
  }
  audit_into(out, c, race, opt, "portfolio", seed, verbose);
}

/// Warm-start oracle for one label mode. The engine's cross-φ warm start
/// (seeding each probe from the nearest feasible φ' >= φ) must never change
/// a result: driven through the flow's own probe order, every probe has to
/// match a fresh single-probe engine bit for bit, and the ledger the flow
/// recorded. Imported ledger records (certificates carried over from another
/// search) were never probed, so they are not part of the sequence.
void check_warm_start(SeedOutcome& out, const Circuit& c, const FlowOptions& opt,
                      const FlowResult& flow, LabelMode mode, const std::string& tag) {
  std::vector<const ProbeRecord*> sequence;
  for (const ProbeRecord& rec : flow.probes) {
    if (rec.mode == mode && !rec.imported) sequence.push_back(&rec);
  }
  const LabelOptions lopts = opt.label_options(mode == LabelMode::kDecomp);
  LabelEngine engine(c, lopts);
  for (const ProbeRecord* rec : sequence) {
    const std::string at = tag + " warm-start oracle at phi=" + std::to_string(rec->phi);
    const LabelResult warm = engine.compute(rec->phi);
    const LabelResult fresh = compute_labels(c, rec->phi, lopts);
    expect(out, warm.feasible == fresh.feasible, at + ": verdict differs from a fresh run");
    expect(out, warm.status == fresh.status, at + ": status differs from a fresh run");
    if (warm.feasible && fresh.feasible) {
      expect(out, warm.labels == fresh.labels, at + ": labels differ from a fresh run");
      expect(out, warm.max_po_label == fresh.max_po_label,
             at + ": max PO label differs from a fresh run");
    }
    expect(out, warm.feasible == rec->feasible, at + ": verdict differs from the ledger");
    expect(out, !warm.feasible || hash_labels(warm.labels) == rec->label_hash,
           at + ": labels differ from the ledger's hash");
  }
}

SeedOutcome run_seed(std::uint64_t seed, const FuzzConfig& cfg, FlowCache* cache) {
  SeedOutcome out;
  const Circuit c = generate_fsm_circuit(spec_for_seed(seed));

  FlowOptions opt;
  opt.k = 4;
  opt.collect_artifacts = true;

  const FlowResult tm = run_turbomap(c, opt);
  audit_into(out, c, tm, opt, "turbomap", seed, cfg.verbose);
  const FlowResult ts = run_turbosyn(c, opt);
  audit_into(out, c, ts, opt, "turbosyn", seed, cfg.verbose);
  expect(out, ts.phi <= tm.phi, "turbosyn phi " + std::to_string(ts.phi) +
                                    " worse than turbomap phi " + std::to_string(tm.phi));
  const FlowResult period = run_turbomap_period(c, opt);
  audit_into(out, c, period, opt, "turbomap_period", seed, cfg.verbose);

  // Replay determinism: same options, same process, same bits.
  if (seed % 4 == 0) {
    const FlowResult replay = run_turbosyn(c, opt);
    expect(out, fingerprint(replay) == fingerprint(ts), "turbosyn replay is not bit-identical");
  }

  check_warm_start(out, c, opt, tm, LabelMode::kPlain, "turbomap");
  check_warm_start(out, c, opt, ts, LabelMode::kDecomp, "turbosyn");

  // A tight decomposition-attempt ceiling: the run may degrade, but the
  // result must still audit clean and can only be worse than the unlimited
  // run.
  if (seed % 3 == 0) {
    FlowOptions tight = opt;
    tight.budget.set_decomp_attempt_budget(2);
    const FlowResult degraded = run_turbosyn(c, tight);
    audit_into(out, c, degraded, tight, "turbosyn/tight-budget", seed, cfg.verbose);
    expect(out, degraded.phi >= ts.phi,
           "budgeted turbosyn phi " + std::to_string(degraded.phi) +
               " beats the unlimited phi " + std::to_string(ts.phi));
  }

  // Expired deadline: the flow falls back to its best-so-far (possibly
  // identity) mapping, which must still be a valid, equivalent network.
  if (seed % 5 == 0) {
    FlowOptions expired = opt;
    expired.budget.set_deadline_after_ms(0);
    const FlowResult fallback = run_turbomap(c, expired);
    audit_into(out, c, fallback, expired, "turbomap/expired-deadline", seed, cfg.verbose);
  }

  // Through-cache replay: populating the flow-artifact cache and replaying
  // the hit must both reproduce the uncached run, bit for bit, and the hit's
  // imported probe ledger must still satisfy the auditor. A hit without
  // artifacts must serve the same summary. The hot tier starts empty and
  // roomy each seed, then shrinks to fit only one of the seed's two entries,
  // so a memory hit, an eviction and a disk re-hit all happen every seed.
  if (cache != nullptr) {
    cache->enable_hot_tier(0);  // drop earlier seeds' residents
    cache->enable_hot_tier(std::size_t{16} << 20);
    CacheRunInfo cold_info;
    const FlowResult cold = run_flow_cached(FlowKind::kTurboSyn, c, opt, cache, &cold_info);
    expect(out, fingerprint(cold) == fingerprint(ts),
           "through-cache: populate run differs from the uncached run");
    expect(out, cold_info.stored || cold_info.hit, "through-cache: populate run not stored");
    const std::int64_t ts_bytes = cache->hot_bytes();
    const std::int64_t hot_hits = cache->hot_hits();
    CacheRunInfo warm_info;
    const FlowResult warm = run_flow_cached(FlowKind::kTurboSyn, c, opt, cache, &warm_info);
    expect(out, warm_info.hit, "through-cache: second run missed the cache");
    expect(out, cache->hot_hits() == hot_hits + 1,
           "through-cache: second run was not served from the hot tier");
    expect(out, fingerprint(warm) == fingerprint(ts),
           "through-cache: cache-hit run differs from the uncached run");
    expect(out, !warm_info.hit || all_imported(warm),
           "through-cache: cache-hit probe ledger has non-imported records");
    if (warm_info.hit) audit_into(out, c, warm, opt, "turbosyn/through-cache", seed, cfg.verbose);
    FlowOptions summary_opt = opt;
    summary_opt.collect_artifacts = false;
    CacheRunInfo summary_info;
    const FlowResult summary =
        run_flow_cached(FlowKind::kTurboSyn, c, summary_opt, cache, &summary_info);
    expect_summary_hit(out, summary, summary_info, ts, "through-cache");

    // TurboMap through the same store: its populate run must match too.
    const FlowResult tm_cached = run_flow_cached(FlowKind::kTurboMap, c, opt, cache);
    expect(out, fingerprint(tm_cached) == fingerprint(tm),
           "through-cache: turbomap populate run differs from the uncached run");
    const std::int64_t tm_bytes = cache->hot_bytes() - ts_bytes;

    // Room for the larger entry alone: the TurboSYN entry, now the LRU
    // tail, is evicted, and its replay is a disk re-hit whose re-admission
    // evicts the TurboMap entry in turn.
    const std::int64_t evictions = cache->hot_evictions();
    cache->enable_hot_tier(static_cast<std::size_t>(std::max(ts_bytes, tm_bytes)));
    expect(out, cache->hot_evictions() == evictions + 1 && cache->hot_entries() == 1,
           "through-cache: shrinking the hot tier did not evict the TurboSYN entry");
    CacheRunInfo rehit_info;
    const std::int64_t hot_hits_before_rehit = cache->hot_hits();
    const FlowResult rehit = run_flow_cached(FlowKind::kTurboSyn, c, opt, cache, &rehit_info);
    expect(out, rehit_info.hit && cache->hot_hits() == hot_hits_before_rehit,
           "through-cache: replay after eviction was not a disk hit");
    expect(out, fingerprint(rehit) == fingerprint(ts),
           "through-cache: disk re-hit differs from the uncached run");
    expect(out, !rehit_info.hit || all_imported(rehit),
           "through-cache: disk re-hit probe ledger has non-imported records");
    if (rehit_info.hit) {
      audit_into(out, c, rehit, opt, "turbosyn/through-cache-rehit", seed, cfg.verbose);
    }
    expect(out, cache->hot_evictions() == evictions + 2 && cache->hot_entries() == 1,
           "through-cache: re-admitting the TurboSYN entry did not evict the LRU tail");
  }

  if (cfg.portfolio) {
    static const std::vector<std::vector<std::string>> kPortfolios = {
        {"turbomap", "turbosyn", "flowsyn_s"},
        {"turbosyn", "turbomap"},
        {"flowsyn_s", "turbosyn", "turbomap"},
        // The clock-period objective races alone: portfolios never mix it
        // with the MDR engines, whose φ values it cannot be compared with.
        {"turbomap_period"},
    };
    check_portfolio(out, c, opt, kPortfolios[seed % kPortfolios.size()], seed, cfg.verbose);
  }

  // Pairwise: the two mappings of the same input must agree with each other.
  {
    SequentialCheckOptions pairwise;
    pairwise.cycles = 128;
    pairwise.seed = seed;
    ++out.checks;
    try {
      if (!sequentially_equivalent_bounded(tm.mapped, ts.mapped, pairwise)) {
        out.failures.push_back("turbomap and turbosyn mappings disagree");
      }
    } catch (const Error& e) {
      out.failures.push_back(std::string("pairwise check threw: ") + e.what());
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const FuzzConfig cfg = parse_args(argc, argv);
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_s = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };

  // --through-cache: one fresh store per process, shared across seeds (each
  // seed's circuit is distinct, so first touch misses and the replay hits).
  std::optional<turbosyn::FlowCache> cache;
  std::filesystem::path cache_dir;
  if (cfg.through_cache) {
    cache_dir = std::filesystem::temp_directory_path() /
                ("turbosyn_flow_fuzz_cache." + std::to_string(::getpid()));
    std::filesystem::remove_all(cache_dir);
    cache.emplace(cache_dir.string());
  }

  std::uint64_t seeds_run = 0;
  std::uint64_t seeds_failed = 0;
  std::uint64_t checks = 0;
  bool out_of_time = false;
  bool fixed_failed = false;
  if (cfg.portfolio) {
    const std::vector<turbosyn::BenchmarkSpec> tiny = turbosyn::tiny_suite();
    for (const turbosyn::BenchmarkSpec& spec :
         {tiny[1], tiny[5], turbosyn::table1_suite()[0]}) {
      turbosyn::FlowOptions opt;
      opt.k = 5;
      opt.collect_artifacts = true;
      SeedOutcome out;
      try {
        check_portfolio(out, turbosyn::generate_fsm_circuit(spec), opt,
                        {"turbomap", "turbosyn", "flowsyn_s"}, 0, cfg.verbose);
      } catch (const std::exception& e) {
        out.failures.push_back(std::string("unhandled exception: ") + e.what());
      }
      checks += static_cast<std::uint64_t>(out.checks);
      if (!out.failures.empty()) {
        fixed_failed = true;
        std::cerr << "[flow_fuzz] fixed circuit " << spec.name << " FAILED:\n";
        for (const std::string& f : out.failures) std::cerr << "  " << f << '\n';
      }
    }
  }
  for (std::uint64_t seed = cfg.first_seed; seed <= cfg.last_seed; ++seed) {
    if (cfg.time_budget_s > 0 && elapsed_s() > cfg.time_budget_s) {
      out_of_time = true;
      break;
    }
    SeedOutcome out;
    try {
      out = run_seed(seed, cfg, cache ? &*cache : nullptr);
    } catch (const std::exception& e) {
      out.failures.push_back(std::string("unhandled exception: ") + e.what());
    }
    ++seeds_run;
    checks += static_cast<std::uint64_t>(out.checks);
    if (!out.failures.empty()) {
      ++seeds_failed;
      std::cerr << "[flow_fuzz] seed " << seed << " FAILED:\n";
      for (const std::string& f : out.failures) std::cerr << "  " << f << '\n';
    } else if (cfg.verbose) {
      std::cerr << "[flow_fuzz] seed " << seed << " ok (" << out.checks << " checks)\n";
    }
  }

  if (cache) {
    cache.reset();
    std::filesystem::remove_all(cache_dir);
  }

  const std::uint64_t requested = cfg.last_seed - cfg.first_seed + 1;
  std::cout << "[flow_fuzz] " << seeds_run << "/" << requested << " seeds, " << checks
            << " checks, " << seeds_failed << " failed, "
            << static_cast<int>(elapsed_s()) << "s" << (out_of_time ? " (time budget hit)" : "")
            << '\n';
  if (seeds_failed > 0 || fixed_failed) return 1;
  if (cfg.require_all && seeds_run < requested) {
    std::cerr << "[flow_fuzz] --require-all: only " << seeds_run << " of " << requested
              << " seeds ran within the time budget\n";
    return 1;
  }
  return 0;
}
