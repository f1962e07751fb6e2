// Differential flow fuzzer: random sequential circuits through every flow,
// with the invariant auditor as the oracle.
//
//   $ flow_fuzz_main [--seeds N | --seeds A..B] [--time-budget SECONDS]
//                    [--through-cache] [--portfolio] [--hot-policy]
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
//     an all-imported ledger, without regenerating the mapping;
//   - with --portfolio, every seed also races a rotating engine portfolio
//     (core/portfolio): the race must be bit-identical to the best
//     standalone engine under the shared selection order, every row must
//     match its engine's standalone run, and the result must pass the full
//     audit including the "portfolio" check.
//     Every --portfolio run also races turbomap,turbosyn,flowsyn_s at K = 5
//     on three fixed circuits where FlowSYN-s alone certifies the smallest
//     φ (tiny2, tiny6, bbara), which random seeds rarely produce;
//   - with --hot-policy, every seed replays the same store/hit/evict access
//     sequence through two fresh caches whose hot tiers are entry-capped
//     small enough to churn, one under the recency policy and one under
//     cost-aware: every run must be bit-identical across the two policies
//     (and to the uncached run), hits must still import-only their ledgers,
//     the hit must pass the full audit, and a summary hit must match the
//     uncached summary — the eviction policy may change WHAT stays resident,
//     never a result.
//
// Exits nonzero on the first failing seed's summary. --time-budget stops
// early once the budget is spent; with --require-all, not finishing every
// requested seed is itself a failure (CI uses this to keep the box honest).

#include <unistd.h>

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
  bool hot_policy = false;     // recency-vs-cost-aware hot-tier oracle
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
    } else if (a == "--hot-policy") {
      cfg.hot_policy = true;
    } else if (a == "--require-all") {
      cfg.require_all = true;
    } else if (a == "--verbose") {
      cfg.verbose = true;
    } else {
      std::cerr << "usage: flow_fuzz_main [--seeds N|A..B] [--time-budget S]"
                   " [--through-cache] [--portfolio] [--hot-policy] [--require-all]"
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
  audit.seq_runs = 2;
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

/// A copy of `c` with one gate's function complemented: the smallest edit —
/// same interface and wiring, one local logic change.
Circuit mutate_one_gate(const Circuit& c, std::uint64_t seed) {
  std::vector<NodeId> gates;
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    if (c.is_gate(v) && !c.fanin_edges(v).empty()) gates.push_back(v);
  }
  TS_CHECK(!gates.empty(), "generated circuit has no gates to mutate");
  const NodeId victim = gates[seed % gates.size()];

  Circuit m;
  std::vector<NodeId> map(static_cast<std::size_t>(c.num_nodes()), kNoNode);
  const auto mapped = [&map](NodeId v) -> NodeId& { return map[static_cast<std::size_t>(v)]; };
  for (const NodeId v : c.pis()) mapped(v) = m.add_pi(c.name(v));
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    if (c.is_gate(v)) mapped(v) = m.declare_gate(c.name(v));
  }
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    if (!c.is_gate(v)) continue;
    std::vector<Circuit::FaninSpec> fanins;
    for (const EdgeId e : c.fanin_edges(v)) {
      fanins.push_back({mapped(c.edge(e).from), c.edge(e).weight});
    }
    const TruthTable& f = c.function(v);
    m.finish_gate(mapped(v), v == victim ? ~f : f, fanins);
  }
  for (const NodeId v : c.pos()) {
    const EdgeId e = c.fanin_edges(v)[0];
    m.add_po(c.name(v), {mapped(c.edge(e).from), c.edge(e).weight});
  }
  m.validate();
  return m;
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
  // artifacts must serve the same summary.
  if (cache != nullptr) {
    CacheRunInfo cold_info;
    const FlowResult cold = run_flow_cached(FlowKind::kTurboSyn, c, opt, cache, &cold_info);
    expect(out, fingerprint(cold) == fingerprint(ts),
           "through-cache: populate run differs from the uncached run");
    expect(out, cold_info.stored || cold_info.hit, "through-cache: populate run not stored");
    CacheRunInfo warm_info;
    const FlowResult warm = run_flow_cached(FlowKind::kTurboSyn, c, opt, cache, &warm_info);
    expect(out, warm_info.hit, "through-cache: second run missed the cache");
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
    if (seed % 2 == 0) {
      const FlowResult tm_cached = run_flow_cached(FlowKind::kTurboMap, c, opt, cache);
      expect(out, fingerprint(tm_cached) == fingerprint(tm),
             "through-cache: turbomap populate run differs from the uncached run");
    }
  }

  // Hot-tier policy invariance: the identical access sequence through two
  // fresh caches — recency vs cost-aware eviction, tiers capped at two
  // entries so the three distinct circuits below force eviction churn —
  // must produce bit-identical results run for run (and match the uncached
  // baselines), with audit-clean imported ledgers on the hits and the
  // uncached summary on a hit without artifacts.
  if (cfg.hot_policy) {
    const Circuit edited = mutate_one_gate(c, seed);
    const FlowResult edited_baseline = run_turbosyn(edited, opt);

    struct PolicyRun {
      std::string populate, populate_tm, populate_edited, hit, hit_edited;
      bool hit_hit = false, hit_edited_hit = false;
      std::int64_t hot_cost_evictions = 0;
    };
    const HotPolicy policies[] = {HotPolicy::kRecency, HotPolicy::kCostAware};
    PolicyRun runs[2];
    for (int p = 0; p < 2; ++p) {
      const std::filesystem::path dir =
          std::filesystem::temp_directory_path() /
          ("turbosyn_fuzz_hotpol." + std::to_string(::getpid()) + "." +
           std::to_string(seed) + "." + hot_policy_name(policies[p]));
      std::filesystem::remove_all(dir);
      FlowCache hot_cache(dir.string());
      hot_cache.enable_hot_tier(std::size_t{16} << 20, 2);
      hot_cache.set_hot_policy(policies[p]);

      PolicyRun& r = runs[p];
      r.populate = fingerprint(run_flow_cached(FlowKind::kTurboSyn, c, opt, &hot_cache));
      r.populate_tm = fingerprint(run_flow_cached(FlowKind::kTurboMap, c, opt, &hot_cache));
      r.populate_edited =
          fingerprint(run_flow_cached(FlowKind::kTurboSyn, edited, opt, &hot_cache));
      CacheRunInfo hit_info;
      const FlowResult hit = run_flow_cached(FlowKind::kTurboSyn, c, opt, &hot_cache, &hit_info);
      r.hit = fingerprint(hit);
      r.hit_hit = hit_info.hit;
      CacheRunInfo edited_info;
      const FlowResult hit_edited =
          run_flow_cached(FlowKind::kTurboSyn, edited, opt, &hot_cache, &edited_info);
      r.hit_edited = fingerprint(hit_edited);
      r.hit_edited_hit = edited_info.hit;
      r.hot_cost_evictions = hot_cache.hot_cost_evictions();

      const std::string tag = std::string("hot-policy/") + hot_policy_name(policies[p]);
      expect(out, r.populate == fingerprint(ts), tag + ": populate differs from uncached");
      expect(out, r.populate_tm == fingerprint(tm),
             tag + ": turbomap populate differs from uncached");
      expect(out, r.hit_hit, tag + ": replay of the stored circuit missed");
      expect(out, r.hit_edited_hit, tag + ": replay of the edited circuit missed");
      expect(out, !r.hit_hit || all_imported(hit), tag + ": hit ledger has non-imported records");
      if (r.hit_hit) audit_into(out, c, hit, opt, tag, seed, cfg.verbose);
      FlowOptions summary_opt = opt;
      summary_opt.collect_artifacts = false;
      CacheRunInfo summary_info;
      const FlowResult summary =
          run_flow_cached(FlowKind::kTurboSyn, c, summary_opt, &hot_cache, &summary_info);
      expect_summary_hit(out, summary, summary_info, ts, tag);
      std::filesystem::remove_all(dir);
    }
    expect(out, runs[0].populate_edited == runs[1].populate_edited,
           "hot-policy: edited populate differs between policies");
    expect(out, runs[0].hit == runs[1].hit, "hot-policy: hit differs between policies");
    expect(out, runs[0].hit_edited == runs[1].hit_edited,
           "hot-policy: edited hit differs between policies");
    expect(out, runs[0].populate_edited == fingerprint(edited_baseline),
           "hot-policy: edited populate differs from the cold baseline");
    expect(out, runs[0].hot_cost_evictions == 0,
           "hot-policy: recency run reported cost-aware evictions");
  }

  if (cfg.portfolio) {
    static const std::vector<std::vector<std::string>> kPortfolios = {
        {"turbomap", "turbosyn", "flowsyn_s"},
        {"turbosyn", "turbomap"},
        {"turbomap", "turbosyn_bisect", "flowsyn_s"},
        {"turbosyn_bisect", "turbosyn"},
    };
    check_portfolio(out, c, opt, kPortfolios[seed % kPortfolios.size()], seed, cfg.verbose);
  }

  // Pairwise: the two mappings of the same input must agree with each other.
  {
    SequentialCheckOptions pairwise;
    pairwise.cycles = 128;
    pairwise.runs = 2;
    pairwise.warmup = 32;
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
