#pragma once
// Cache-aware flow execution: replay a stored run without label probes.
//
// run_flow_cached() is a drop-in for run_flow() that consults a FlowCache.
// On a miss it runs the flow normally and populates the store (exact runs
// only — see FlowCache::storable). On a hit it replays the run through the
// same staged FlowDriver, with the search stage replaced by a
// CachedSearchStage: every cached probe outcome re-enters the ProbeLedger as
// an imported record (keeping its original verdict and provenance rules —
// the ledger shows only imported entries, and a φ-1 rejection witness stays
// available to the auditor), the winning labels are published directly, and
// the driver proceeds straight to mapgen → pack → pipeline/retime. Those
// stages are deterministic functions of (circuit, labels, φ, options), so a
// hit is bit-identical to the uncached run — the flow-fuzz --through-cache
// replay asserts exactly that.
//
// FlowSYN-s runs no label search; it passes through uncached.

#include "cache/flow_cache.hpp"
#include "core/driver.hpp"
#include "core/portfolio.hpp"

namespace turbosyn {

/// What run_flow_cached did, for logs and result records.
struct CacheRunInfo {
  bool hit = false;     // the run was replayed from the store
  bool stored = false;  // the run populated the store
};

/// Runs `kind` on `c`, consulting `cache` (nullptr = plain run_flow).
FlowResult run_flow_cached(FlowKind kind, const Circuit& c, const FlowOptions& options,
                           FlowCache* cache, CacheRunInfo* info = nullptr);

/// Cache-aware portfolio racing: run_portfolio() with a FlowCache in front.
/// The key covers the ordered engine list with per-spec fingerprints
/// (make_portfolio_cache_key). A hit resolves the stored winner against the
/// requested engines, applies that spec's option deltas, and replays the
/// winner's artifacts through the staged driver — bit-identical to re-racing,
/// because the race itself is bit-identical to running every engine and
/// selecting with the shared comparator. The replayed result carries
/// FlowResult::engine and the merged engine-tagged ledger but an empty
/// portfolio table (no race happened, so there is nothing for the
/// "portfolio" audit to re-verify). A race won by an engine without label
/// artifacts (FlowSYN-s) is quarantined, never stored.
FlowResult run_portfolio_cached(const std::vector<const EngineSpec*>& engines,
                                const Circuit& c, const FlowOptions& options,
                                const PortfolioOptions& popt, FlowCache* cache,
                                CacheRunInfo* info = nullptr);

/// The search-stage replacement a cache hit substitutes for UbProbe +
/// PhiSearch: publishes the cached winning labels and re-records every
/// cached probe as imported. Exposed for tests and the batch runner.
class CachedSearchStage final : public Stage {
 public:
  explicit CachedSearchStage(const CacheEntry& entry) : entry_(entry) {}

  const char* name() const override { return "cached-search"; }
  std::vector<ArtifactId> consumes() const override { return {ArtifactId::kInputCircuit}; }
  std::vector<ArtifactId> produces() const override {
    return {ArtifactId::kUpperBound, ArtifactId::kWinningLabels};
  }
  void run(FlowContext& ctx) override;

 private:
  const CacheEntry& entry_;  // owned by the caller for the driver's lifetime
};

}  // namespace turbosyn
