#include "cache/cached_flow.hpp"

#include <chrono>
#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "base/trace.hpp"
#include "core/driver.hpp"

namespace turbosyn {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A cached entry is usable for this circuit only if its label vector spans
/// the circuit's nodes; anything else means the key matched a different
/// world (should be impossible past the collision check, but stay safe).
bool entry_fits(const CacheEntry& entry, const Circuit& c) {
  return static_cast<int>(entry.winning_labels.size()) == c.num_nodes() && entry.phi >= 1;
}

/// Schema v2 stores winning labels in canonical node order; the replay and
/// the auditor consume them in input-id order. Remaps in place and rewrites
/// the winning probe's label hash so the ledger's certification tie — the
/// feasible record at (mode, φ) hashes the published labels — still holds
/// for this parse's node numbering.
void remap_entry_to_input_order(CacheEntry& entry, const CacheKey& key) {
  const std::vector<NodeId>& order = key.order;
  std::vector<int> labels(entry.winning_labels.size(), 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    labels[static_cast<std::size_t>(order[i])] = entry.winning_labels[i];
  }
  entry.winning_labels = std::move(labels);
  const std::uint64_t input_hash =
      hash_labels(std::span<const int>(entry.winning_labels));
  for (CachedProbe& p : entry.probes) {
    if (p.engine == entry.winner && p.mode == entry.mode && p.phi == entry.phi) {
      p.label_hash = input_hash;
      break;
    }
  }
}

/// The "cached-search" stage body, in place of the upper bound and the φ
/// search: re-records every cached probe as imported (this run probed
/// nothing) and returns the cached winning labels at the cached φ.
LabelResult import_cached_search(FlowContext& ctx, const CacheEntry& entry) {
  ctx.result.phi = entry.phi;
  for (const CachedProbe& p : entry.probes) {
    ProbeRecord rec;
    rec.engine = p.engine;
    rec.phi = p.phi;
    rec.mode = p.mode;
    rec.outcome = p.outcome;
    rec.status = p.status;
    rec.feasible = p.feasible;
    rec.imported = true;
    rec.label_hash = p.label_hash;
    rec.max_po_label = p.max_po_label;
    ctx.ledger.record(std::move(rec));
  }
  ctx.count("imported_probes", static_cast<std::int64_t>(entry.probes.size()));
  LabelResult labels;
  labels.feasible = true;
  labels.labels = entry.winning_labels;
  labels.max_po_label = entry.max_po_label;
  labels.status = Status::kOk;
  return labels;
}

/// Serves a hit: the cached-search stage imports the ledger either way (one
/// stage span, one StageMetric). Without artifacts the entry's summary is the
/// result and `mapped` stays empty; with them mapgen → pack → retime replay
/// from the labels, bit-identical to the stored run. `period_objective` picks
/// the replay config as run_engine() would (PO-capped relaxation, retiming
/// without pipelining).
FlowResult serve_hit(const std::string& trace_label, bool period_objective,
                     const Circuit& c, const FlowOptions& options, const CacheEntry& entry) {
  const auto start = Clock::now();
  TraceSpan span(options.trace, trace_label + " (cache hit)");
  FlowContext ctx(c, options);
  LabelResult labels;
  ctx.run_stage("cached-search", [&] { labels = import_cached_search(ctx, entry); });
  if (options.collect_artifacts) map_pack_retime(ctx, &labels, entry.mode, period_objective);
  FlowResult result = ctx.finish();
  if (!options.collect_artifacts && result.status == Status::kOk) {
    result.luts = entry.luts;
    result.ffs = entry.ffs;
    result.exact_mdr = Rational(entry.mdr_num, entry.mdr_den);
    result.period = entry.period;
    result.pipeline_stages = entry.pipeline_stages;
  }
  result.seconds = seconds_since(start);
  return result;
}

/// Observability (DESIGN.md §13): the cache's cumulative fault/recovery
/// counters into the trace stream — recovered_* say how much corruption was
/// detected and absorbed (never served), retries how many store attempts
/// re-ran after a transient failure. One span per cached run, so trace
/// consumers can watch the counters move across a batch.
void trace_cache_counters(TraceSink* trace, const FlowCache& cache) {
  if (trace == nullptr) return;
  TraceSpan span(trace, "cache:counters");
  span.counter("cache_hits", cache.hits());
  span.counter("cache_misses", cache.misses());
  span.counter("cache_stores", cache.stores());
  span.counter("cache_rejects", cache.rejects());
  span.counter("recovered_entries", cache.recovered_entries());
  span.counter("recovered_tmp", cache.recovered_tmp());
  span.counter("retries", cache.retries());
  span.counter("hot_hits", cache.hot_hits());
  span.counter("hot_evictions", cache.hot_evictions());
}

}  // namespace

FlowResult run_flow_cached(FlowKind kind, const Circuit& c, const FlowOptions& options,
                           FlowCache* cache, CacheRunInfo* info) {
  if (info != nullptr) *info = CacheRunInfo{};
  // FlowSYN-s records no probe ledger and no label artifacts: nothing to
  // reuse, so it always runs plain.
  if (cache == nullptr || kind == FlowKind::kFlowSynS) {
    return run_flow(kind, c, options);
  }

  const CacheKey key = make_cache_key(c, options, kind);
  if (std::optional<CacheEntry> entry = cache->lookup(key);
      entry.has_value() && entry_fits(*entry, c) && entry->winner.empty()) {
    remap_entry_to_input_order(*entry, key);
    FlowResult result = serve_hit(std::string("flow:") + flow_kind_name(kind),
                                  kind == FlowKind::kTurboMapPeriod, c, options, *entry);
    if (info != nullptr) info->hit = true;
    trace_cache_counters(options.trace, *cache);
    return result;
  }

  // Miss: run for real, collecting the winning labels the store needs even
  // when the caller did not ask for audit artifacts (collection does not
  // change the mapping — the fuzzer's bit-identity checks cover this).
  FlowOptions run_options = options;
  run_options.collect_artifacts = true;
  FlowResult result = run_flow(kind, c, run_options);
  const bool stored = cache->store_result(key, result);
  if (info != nullptr) info->stored = stored;
  if (!options.collect_artifacts) result.artifacts = FlowArtifacts{};
  trace_cache_counters(options.trace, *cache);
  return result;
}

FlowResult run_portfolio_cached(const std::vector<const EngineSpec*>& engines,
                                const Circuit& c, const FlowOptions& options,
                                FlowCache* cache, CacheRunInfo* info) {
  if (info != nullptr) *info = CacheRunInfo{};
  if (cache == nullptr) return run_portfolio(engines, c, options);

  const CacheKey key = make_portfolio_cache_key(c, options, engines);
  if (std::optional<CacheEntry> entry = cache->lookup(key);
      entry.has_value() && entry_fits(*entry, c)) {
    // Resolve the stored winner against the requested race. The byte-compared
    // key already pins the engine list, so a missing name means a corrupt or
    // hand-edited entry — degrade to a miss, never guess.
    const EngineSpec* winner = nullptr;
    for (const EngineSpec* spec : engines) {
      if (spec->name == entry->winner) winner = spec;
    }
    if (winner != nullptr) {
      remap_entry_to_input_order(*entry, key);
      FlowResult result =
          serve_hit("flow:portfolio", winner->period_objective, c, options, *entry);
      result.engine = entry->winner;
      if (info != nullptr) info->hit = true;
      trace_cache_counters(options.trace, *cache);
      return result;
    }
  }

  FlowOptions run_options = options;
  run_options.collect_artifacts = true;
  FlowResult result = run_portfolio(engines, c, run_options);
  const bool stored = cache->store_result(key, result);
  if (info != nullptr) info->stored = stored;
  if (!options.collect_artifacts) result.artifacts = FlowArtifacts{};
  trace_cache_counters(options.trace, *cache);
  return result;
}

}  // namespace turbosyn
