#pragma once
// Persistent, content-addressed store of flow artifacts.
//
// A FlowCache maps a canonical key — the circuit's canonical structural form
// (netlist/canonical.hpp) plus a fingerprint of every result-relevant flow
// option — to what a finished run certified: the probe ledger, the winning
// per-φ label vector and the result summary (φ, LUTs, FFs, exact MDR, period,
// pipeline stages). A later run of the same (circuit, options, flow) is a
// lookup: cached probes re-enter the ledger as imported records and the
// summary is the result (src/cache/cached_flow.hpp). The mapped network is
// not stored; a caller collecting artifacts gets it regenerated from the
// labels, deterministically, so that hit is bit-identical to the uncached run.
//
// Soundness rules (DESIGN.md §11):
//   - Only exact runs are stored. store() refuses any result whose status is
//     not kOk or that was interrupted — a degraded "infeasible" is not a
//     certificate, so it must never seed a later run's minimality claim
//     (the quarantine the PR 2 / PR 4 ledger rules require).
//   - Hash equality is never trusted: every entry carries the full key text
//     and lookup() compares it byte for byte. A 64-bit collision (or a stale
//     file reused under a recycled name) degrades to a miss, never to a
//     wrong artifact.
//   - Any malformed entry — schema-version mismatch, truncation, corrupted
//     fields, label vector of the wrong length — is a clean miss: lookup()
//     never throws and never returns a partially parsed entry.
//   - Writes are atomic (unique tmp file + rename), so concurrent writers
//     (batch tasks mapping the same circuit) and readers racing a writer see
//     either no entry or a complete one, never a torn file.
//
// Crash consistency (DESIGN.md §13): rename is atomic but write is not — a
// power cut or SIGKILL mid-write leaves a stray tmp file, and a crash after
// a partial flush that still renamed (or plain disk corruption) leaves a
// torn entry. Every v3 entry therefore ends in a length + checksum trailer
// ("sum <n> <hex64>", FNV-1a over the first n bytes); lookup() verifies it,
// so a torn entry — even one that still tokenizes — demotes to a clean miss
// and is counted in recovered_entries(). recover() garbage-collects stray
// tmp files and unparseable entries; store() retries transient write/rename
// failures with a short deterministic backoff (reads never retry: a miss is
// already sound and cheap). Files the cache does not own, such as the
// near-miss index sidecars older versions wrote, are ignored.
//
// Fault injection: the read/write/rename paths are failpoint sites
// ("cache.entry.read", "cache.entry.write", "cache.entry.rename" — see
// base/failpoint.hpp). With no failpoint armed every site is a single
// relaxed atomic load.
//
// The on-disk format is a versioned, line-oriented text schema (one file per
// key, named <16-hex-hash>.tsce) chosen for debuggability; entries are a few
// KB for typical circuits.
//
// Hot tier (enable_hot_tier): an optional in-memory layer over the
// persistent store, for long-lived processes (the mapping daemon) where the
// same circuits recur and re-reading + re-parsing the entry file per request
// is the dominant hit cost. The tier holds validated CacheEntry copies
// keyed by hash with the full key text retained, so the collision rule
// above applies to memory exactly as to disk. It is write-through: store()
// and disk hits populate it, and its one eviction rule — drop the least
// recently used entry while the resident bytes exceed the cap (DESIGN.md
// §14, §16) — never loses anything the disk doesn't still have. Eviction only
// decides where a hit is served, so results are the same with or without it.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engines.hpp"
#include "core/flows.hpp"
#include "core/probe_ledger.hpp"
#include "netlist/circuit.hpp"

namespace turbosyn {

/// Cache key: hash for addressing, full text for the collision check.
struct CacheKey {
  std::uint64_t hash = 0;
  std::string text;
  /// The keyed circuit's canonical node order (CanonicalForm::order): a hit
  /// remaps the stored labels through it and a store writes them in it.
  std::vector<NodeId> order;
};

/// Canonical key for running `kind` on `c` under `options`. Covers exactly
/// the options that can change the result (k, cmax, height_span, the
/// algorithm toggles, expansion limits); excludes num_threads (ignored),
/// budgets (a budget that interfered makes the run unstorable; one that did
/// not leaves the result equal to the unlimited run) and observability
/// knobs.
CacheKey make_cache_key(const Circuit& c, const FlowOptions& options, FlowKind kind);

/// Key for racing `engines` (a validated portfolio, core/portfolio.hpp) on
/// `c`. The options line replaces the flow name with the ordered engine
/// list, each entry carrying its spec fingerprint — so a portfolio hit is
/// only served to the exact same race (same engines, same order), and
/// reordering or swapping an engine is a clean miss.
CacheKey make_portfolio_cache_key(const Circuit& c, const FlowOptions& options,
                                  const std::vector<const EngineSpec*>& engines);

/// One serialized probe-ledger record (stats and wall time are dropped: an
/// imported record never carries them — the originating run does).
struct CachedProbe {
  /// Ledger tag of the engine that produced the record (schema v4). Empty
  /// for standalone runs; serialized as the "-" placeholder, so an engine
  /// can never be named "-".
  std::string engine;
  int phi = 0;
  LabelMode mode = LabelMode::kPlain;
  ProbeOutcome outcome = ProbeOutcome::kOk;
  Status status = Status::kOk;
  bool feasible = false;
  std::uint64_t label_hash = 0;
  int max_po_label = 0;
};

/// Everything a hit returns, plus the labels an artifact-collecting hit replays.
struct CacheEntry {
  /// Winning engine of a portfolio run (schema v4; empty for standalone
  /// flows). A portfolio hit resolves this name against the requested
  /// engine list and replays it under the caller's options.
  std::string winner;
  int phi = 0;                     // the ratio/period the run settled on
  LabelMode mode = LabelMode::kPlain;  // update rule of the winning labels
  int max_po_label = 0;            // of the winning label vector
  std::vector<CachedProbe> probes; // the full ledger, in record order
  /// Converged labels at `phi`, in CANONICAL node order (schema v2): entry i
  /// belongs to the node at CacheKey::order[i]. Canonical order is
  /// parse-order independent, so a differently-ordered parse of the same
  /// netlist replays correctly. Callers remap to input ids.
  std::vector<int> winning_labels;
  // Result summary, returned as-is by a hit that collects no artifacts. The
  // mapped network is not stored (schema v6): only the labels rebuild it.
  int luts = 0;
  std::int64_t ffs = 0;
  std::int64_t mdr_num = 0;
  std::int64_t mdr_den = 1;
  std::int64_t period = 0;
  int pipeline_stages = 0;
};

class FlowCache {
 public:
  /// Entry files live directly under `dir`; the directory (and its parents)
  /// are created on the first store.
  explicit FlowCache(std::string dir);

  /// v9: no probe wall-time ("cost") line (v8 stored the minimum pipeline
  /// depth for the period, not a power of two; v7 keys no longer named a
  /// multiplicity engine; v6 dropped the mapped BLIF from entries; v5
  /// recorded the probe wall time; v4 named the winning engine and tagged
  /// every probe record with its engine; v3 added the length + checksum
  /// trailer; v2 canonical-order labels). Older entries parse as a schema
  /// mismatch, i.e. a clean miss.
  static constexpr int kSchemaVersion = 9;

  /// The complete, validated entry for `key`, or nullopt (miss). Collision-
  /// checked against key.text; never throws on malformed files. With the hot
  /// tier enabled, a resident entry is served from memory (no file read, no
  /// re-parse) — still byte-compared against key.text, because hash equality
  /// is never trusted, in RAM or on disk.
  std::optional<CacheEntry> lookup(const CacheKey& key) const;

  /// In-memory hot tier: keeps recently looked-up / stored entries resident
  /// so a repeated circuit skips the file read, parse, and checksum entirely
  /// (the mapping daemon's steady-state path). LRU eviction from the cold
  /// end whenever the tier exceeds `max_bytes` (estimated resident size);
  /// shrinking the cap evicts down at once. `max_bytes` == 0 disables the
  /// tier and drops everything resident. The tier is a pure cache over the
  /// persistent store — eviction never loses data, and every hot entry was
  /// validated through the full parse/checksum path when it entered.
  /// Thread-safe; an entry larger than `max_bytes` on its own is simply
  /// never admitted.
  void enable_hot_tier(std::size_t max_bytes);
  bool hot_tier_enabled() const;

  /// Atomically persists `entry` under `key`. Returns false without writing
  /// when the entry is unstorable (see rejects_ below) or the write failed.
  bool store(const CacheKey& key, const CacheEntry& entry);

  /// storable() + entry_from_result() + store() in one step; a quarantined
  /// (unstorable) result counts against rejects(). Returns true iff written.
  bool store_result(const CacheKey& key, const FlowResult& result);

  /// True iff `result` may be cached: an exact, uninterrupted run whose
  /// winning labels were collected. Everything else is quarantined.
  static bool storable(const FlowResult& result);

  /// Builds the entry for a storable result (artifacts must be valid).
  /// `key` is the key of the circuit the flow ran on: labels are remapped
  /// from input ids to its canonical order for storage.
  static CacheEntry entry_from_result(const FlowResult& result, const CacheKey& key);

  /// What one recover() pass cleaned out of the cache directory.
  struct RecoveryStats {
    std::int64_t stray_tmp = 0;     // *.tmp.* files from crashed writers
    std::int64_t torn_entries = 0;  // .tsce files failing parse/checksum
    std::int64_t total() const { return stray_tmp + torn_entries; }
  };

  /// Crash recovery: scans the cache directory and deletes stray tmp files
  /// and entries that fail parse or checksum validation; files the cache
  /// does not own are left alone. Never throws; a missing directory is an
  /// empty pass. Call at startup — running it concurrently with an active
  /// writer can GC that writer's live tmp file, which the writer then
  /// absorbs as a retried store. Everything removed also counts into the
  /// recovered_* counters.
  RecoveryStats recover();

  const std::string& dir() const { return dir_; }
  std::string entry_path(const CacheKey& key) const;

  // Monotonic per-process counters (thread-safe; for logs and tests).
  std::int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  std::int64_t stores() const { return stores_.load(std::memory_order_relaxed); }
  std::int64_t rejects() const { return rejects_.load(std::memory_order_relaxed); }
  /// Torn/corrupt entries demoted to misses (lookup paths) or GC'd
  /// (recover()) — every one was detected, none was ever served.
  std::int64_t recovered_entries() const {
    return recovered_entries_.load(std::memory_order_relaxed);
  }
  /// Stray tmp files garbage-collected by recover().
  std::int64_t recovered_tmp() const {
    return recovered_tmp_.load(std::memory_order_relaxed);
  }
  /// Store attempts re-run after a transient write/rename failure.
  std::int64_t retries() const { return retries_.load(std::memory_order_relaxed); }

  // Hot-tier counters. hot_hits is a subset of hits(): every hot hit is a
  // hit, served without touching the filesystem.
  std::int64_t hot_hits() const { return hot_hits_.load(std::memory_order_relaxed); }
  std::int64_t hot_evictions() const {
    return hot_evictions_.load(std::memory_order_relaxed);
  }
  /// Currently resident entries / estimated resident bytes (point-in-time,
  /// not monotonic).
  std::int64_t hot_entries() const;
  std::int64_t hot_bytes() const;

 private:
  /// One resident entry: the full key text rides along for the collision
  /// check, `bytes` is the admission-time size estimate eviction accounts.
  struct HotEntry {
    std::uint64_t hash = 0;
    std::string key_text;
    CacheEntry entry;
    std::size_t bytes = 0;
  };

  /// Resident copy for `key` (byte-compared), bumping it to the MRU end.
  std::optional<CacheEntry> hot_lookup(const CacheKey& key) const;
  /// Admits a validated entry, evicting LRU entries past the byte cap.
  /// No-op when the tier is disabled or the entry alone exceeds max_bytes.
  void hot_insert(const CacheKey& key, const CacheEntry& entry) const;
  /// Pops the LRU tail while the resident bytes exceed the cap. Caller
  /// holds hot_mu_.
  void hot_evict_locked() const;

  std::string dir_;

  // Hot tier (all guarded by hot_mu_ except the atomic counters; mutable:
  // lookup() is const but bumps recency and admits disk hits).
  mutable std::mutex hot_mu_;
  mutable std::list<HotEntry> hot_lru_;  // front = most recently used
  mutable std::unordered_map<std::uint64_t, std::list<HotEntry>::iterator> hot_index_;
  std::size_t hot_max_bytes_ = 0;  // 0 = tier disabled
  mutable std::size_t hot_bytes_now_ = 0;
  mutable std::atomic<std::int64_t> hot_hits_{0};
  mutable std::atomic<std::int64_t> hot_evictions_{0};
  mutable std::atomic<std::int64_t> hits_{0};
  mutable std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> stores_{0};
  std::atomic<std::int64_t> rejects_{0};
  mutable std::atomic<std::int64_t> recovered_entries_{0};
  std::atomic<std::int64_t> recovered_tmp_{0};
  std::atomic<std::int64_t> retries_{0};
};

}  // namespace turbosyn
