#pragma once
// Cache-aware flow execution: a stored run is a certified lookup.
//
// run_flow_cached() is a drop-in for run_flow() that consults a FlowCache.
// On a miss it runs the flow normally and populates the store (exact runs
// only — see FlowCache::storable). On a hit one "cached-search" stage takes
// the place of the upper bound and the φ search: every cached probe outcome
// re-enters the ProbeLedger as an imported record (keeping its original
// verdict and provenance rules — the ledger shows only imported entries,
// and a φ-1 rejection witness stays available to the auditor) and the
// winning labels are published. Without FlowOptions::collect_artifacts (the
// batch runner, the daemon) the entry's validated summary is the result and
// FlowResult::mapped stays empty. With it (the audit, blif_flow) the hit
// replays the mapgen, pack and pipeline-retime stages from the labels:
// deterministic functions of (circuit, labels, φ, options), so that hit is
// bit-identical to the uncached run and is the only way a hit produces
// `mapped`. The flow-fuzz --through-cache
// lane checks both kinds of hit against the uncached run.
//
// FlowSYN-s runs no label search; it passes through uncached.

#include "cache/flow_cache.hpp"
#include "core/portfolio.hpp"

namespace turbosyn {

/// What run_flow_cached did, for logs and result records.
struct CacheRunInfo {
  bool hit = false;     // the run was served from the store
  bool stored = false;  // the run populated the store
};

/// Runs `kind` on `c`, consulting `cache` (nullptr = plain run_flow).
FlowResult run_flow_cached(FlowKind kind, const Circuit& c, const FlowOptions& options,
                           FlowCache* cache, CacheRunInfo* info = nullptr);

/// Cache-aware portfolio racing: run_portfolio() with a FlowCache in front.
/// The key covers the ordered engine list with per-spec fingerprints
/// (make_portfolio_cache_key). A hit resolves the stored winner against the
/// requested engines and serves it like run_flow_cached — bit-identical to
/// re-racing, because the race runs every engine and selects with the
/// shared comparator. The hit's result carries FlowResult::engine and the
/// merged engine-tagged ledger but an empty portfolio table (no race
/// happened, so there is nothing for the "portfolio" audit to re-verify). A race won by an engine without label
/// artifacts (FlowSYN-s) is quarantined, never stored.
FlowResult run_portfolio_cached(const std::vector<const EngineSpec*>& engines,
                                const Circuit& c, const FlowOptions& options,
                                FlowCache* cache, CacheRunInfo* info = nullptr);

}  // namespace turbosyn
