#include "cache/flow_cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>

#include "base/failpoint.hpp"
#include "netlist/canonical.hpp"

namespace turbosyn {
namespace {

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return std::string(buf);
}

/// Round-trippable decimal form of a wall-time value: %.17g reproduces the
/// exact double on re-parse, so a store → lookup cycle keeps the cost
/// bit-identical.
std::string real_token(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return std::string(buf);
}

/// Sequential reader over a loaded entry file. Every getter reports failure
/// through ok(); parsing stops caring about the content once ok() is false.
class EntryReader {
 public:
  explicit EntryReader(std::string content) : content_(std::move(content)) {}

  bool ok() const { return ok_; }

  /// The next whitespace-delimited token.
  std::string token() {
    while (pos_ < content_.size() && std::isspace(static_cast<unsigned char>(content_[pos_]))) {
      ++pos_;
    }
    const std::size_t start = pos_;
    while (pos_ < content_.size() &&
           !std::isspace(static_cast<unsigned char>(content_[pos_]))) {
      ++pos_;
    }
    if (start == pos_) ok_ = false;
    return content_.substr(start, pos_ - start);
  }

  void expect(const char* literal) {
    if (token() != literal) ok_ = false;
  }

  std::int64_t integer() {
    const std::string t = token();
    if (!ok_) return 0;
    try {
      std::size_t used = 0;
      const std::int64_t value = std::stoll(t, &used);
      if (used != t.size()) ok_ = false;
      return value;
    } catch (...) {
      ok_ = false;
      return 0;
    }
  }

  std::uint64_t hex() {
    const std::string t = token();
    if (!ok_) return 0;
    try {
      std::size_t used = 0;
      const std::uint64_t value = std::stoull(t, &used, 16);
      if (used != t.size()) ok_ = false;
      return value;
    } catch (...) {
      ok_ = false;
      return 0;
    }
  }

  /// A non-negative finite real (the schema v5 "cost" field).
  double real() {
    const std::string t = token();
    if (!ok_) return 0.0;
    try {
      std::size_t used = 0;
      const double value = std::stod(t, &used);
      if (used != t.size() || !(value >= 0.0) || !std::isfinite(value)) ok_ = false;
      return value;
    } catch (...) {
      ok_ = false;
      return 0.0;
    }
  }

  /// A length-prefixed raw segment: the byte count was just read; one
  /// separator character follows, then exactly `n` raw bytes.
  std::string raw(std::int64_t n) {
    if (n < 0 || pos_ >= content_.size()) {
      ok_ = false;
      return {};
    }
    ++pos_;  // the single separator after the length token
    if (pos_ + static_cast<std::size_t>(n) > content_.size()) {
      ok_ = false;
      return {};
    }
    const std::string segment = content_.substr(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return segment;
  }

  /// Byte offset just past the last consumed token (for the checksum
  /// trailer's coverage check).
  std::size_t offset() const { return pos_; }

 private:
  std::string content_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// True when an armed read-path failpoint says this read fails. Reads never
/// retry — the caller degrades to a miss, which is sound and cheap. A kThrow
/// policy is absorbed here too: lookup paths never throw.
bool read_fault(const char* site) {
  if (!failpoint::enabled()) return false;
  try {
    return failpoint::check(site).action == failpoint::Action::kError;
  } catch (...) {
    return true;
  }
}

bool in_range(std::int64_t value, std::int64_t lo, std::int64_t hi) {
  return value >= lo && value <= hi;
}

/// Engine tags are single tokens in the line-oriented schema, so the empty
/// tag (standalone runs) rides as "-" — never a legal engine name.
std::string engine_token(const std::string& engine) {
  return engine.empty() ? "-" : engine;
}

std::string engine_from_token(const std::string& token) {
  return token == "-" ? std::string() : token;
}

/// A fully parsed and internally certified entry file, before any key check.
struct ParsedEntry {
  CacheEntry entry;
  std::string key_text;     // the stored canonical key (options + circuit)
  std::uint64_t hash = 0;   // the stored key hash
};

/// Loads and validates one entry file: schema version, field ranges, the
/// checksum trailer, and the internal certification tie between the winning
/// labels and a feasible ledger record. Does NOT compare against any caller
/// key — lookup() and recover() apply their own checks on top.
/// nullopt on any defect. `existed` (optional) reports whether a file was
/// there at all, so callers can tell a plain miss from a torn entry.
std::optional<ParsedEntry> parse_entry_file(const std::string& path,
                                            bool* existed = nullptr) {
  if (existed != nullptr) *existed = false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  if (existed != nullptr) *existed = true;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  const std::string content = buffer.str();

  EntryReader r(content);
  r.expect("turbosyn-cache");
  if (r.integer() != FlowCache::kSchemaVersion) return std::nullopt;
  ParsedEntry parsed;
  r.expect("hash");
  parsed.hash = r.hex();
  r.expect("key");
  parsed.key_text = r.raw(r.integer());
  if (!r.ok() || fnv1a64(parsed.key_text) != parsed.hash) return std::nullopt;
  r.expect("status");
  if (r.token() != "ok") return std::nullopt;  // quarantined (degraded) entry

  CacheEntry& entry = parsed.entry;
  r.expect("winner");
  entry.winner = engine_from_token(r.token());
  r.expect("phi");
  entry.phi = static_cast<int>(r.integer());
  r.expect("mode");
  const std::int64_t mode = r.integer();
  if (!in_range(mode, 0, 1)) return std::nullopt;
  entry.mode = static_cast<LabelMode>(mode);
  r.expect("maxpo");
  entry.max_po_label = static_cast<int>(r.integer());
  r.expect("result");
  entry.luts = static_cast<int>(r.integer());
  entry.ffs = r.integer();
  entry.mdr_num = r.integer();
  entry.mdr_den = r.integer();  // > 0: a summary hit builds Rational(num, den)
  entry.period = r.integer();
  entry.pipeline_stages = static_cast<int>(r.integer());
  r.expect("cost");
  entry.flow_wall_seconds = r.real();

  r.expect("probes");
  const std::int64_t num_probes = r.integer();
  if (!r.ok() || entry.mdr_den < 1 || !in_range(num_probes, 1, 1 << 20)) return std::nullopt;
  entry.probes.reserve(static_cast<std::size_t>(num_probes));
  for (std::int64_t i = 0; i < num_probes && r.ok(); ++i) {
    CachedProbe p;
    r.expect("p");
    p.engine = engine_from_token(r.token());
    const std::int64_t probe_mode = r.integer();
    if (!in_range(probe_mode, 0, 1)) return std::nullopt;
    p.mode = static_cast<LabelMode>(probe_mode);
    p.phi = static_cast<int>(r.integer());
    const std::int64_t outcome = r.integer();
    if (!in_range(outcome, 0, 3)) return std::nullopt;
    p.outcome = static_cast<ProbeOutcome>(outcome);
    // kFailed (5) is deliberately out of range: a contained stage failure can
    // never belong to a storable (kOk) run, so an entry carrying one is
    // corruption, not data.
    const std::int64_t status = r.integer();
    if (!in_range(status, 0, 4)) return std::nullopt;
    p.status = static_cast<Status>(status);
    p.feasible = r.integer() != 0;
    p.label_hash = r.hex();
    p.max_po_label = static_cast<int>(r.integer());
    entry.probes.push_back(p);
  }

  r.expect("labels");
  const std::int64_t num_labels = r.integer();
  if (!r.ok() || !in_range(num_labels, 1, 1 << 26)) return std::nullopt;
  entry.winning_labels.reserve(static_cast<std::size_t>(num_labels));
  for (std::int64_t i = 0; i < num_labels && r.ok(); ++i) {
    entry.winning_labels.push_back(static_cast<int>(r.integer()));
  }

  r.expect("end");
  if (!r.ok()) return std::nullopt;

  // Checksum trailer (schema v3): "sum <n> <hex64>", FNV-1a over the first n
  // bytes. Catches torn writes and bit rot that still tokenize — a spliced
  // or truncated-and-repaired file cannot keep the checksum. The trailer
  // must cover at least everything parsed above; a shorter span could
  // validate a file whose tail was swapped out.
  const std::size_t parsed_bytes = r.offset();
  r.expect("sum");
  const std::int64_t sum_len = r.integer();
  const std::uint64_t sum_hash = r.hex();
  if (!r.ok() || sum_len < static_cast<std::int64_t>(parsed_bytes) ||
      sum_len > static_cast<std::int64_t>(content.size())) {
    return std::nullopt;
  }
  if (fnv1a64(std::string_view(content).substr(0, static_cast<std::size_t>(sum_len))) !=
      sum_hash) {
    return std::nullopt;
  }

  // Internal consistency: the winning labels must be certified by a feasible
  // ledger record whose hash matches them (the same tie the auditor checks).
  // v2 stores labels in canonical order; the hash is over that order. v4:
  // the certifying record must belong to the winning engine — a merged
  // portfolio ledger can hold several records at the same (mode, φ).
  const std::uint64_t winning_hash =
      hash_labels(std::span<const int>(entry.winning_labels));
  bool certified = false;
  for (const CachedProbe& p : entry.probes) {
    if (p.engine == entry.winner && p.mode == entry.mode && p.phi == entry.phi) {
      certified = p.feasible && p.label_hash == winning_hash && p.status == Status::kOk;
      break;
    }
  }
  if (!certified) return std::nullopt;
  return parsed;
}

}  // namespace

namespace {

/// The result-relevant caller options, shared by both key makers. Excludes
/// num_threads / budgets / observability knobs (see make_cache_key docs).
void append_option_fields(std::ostringstream& os, const FlowOptions& options) {
  os << " k " << options.k << " cmax " << options.cmax << " height_span "
     << options.height_span << " pld " << options.use_pld << " relax "
     << options.label_relaxation << " lowcost " << options.low_cost_cuts << " dedupe "
     << options.dedupe << " pack " << options.pack << " pipeline " << options.pipeline
     << " exp " << options.expansion.extra_levels << ' ' << options.expansion.node_budget
     << '\n';
}

/// Finishes a key from its options line: full text and hash.
CacheKey finish_cache_key(const Circuit& c, const std::string& options_line) {
  CanonicalForm form = canonical_circuit_form(c);
  CacheKey key;
  key.text = options_line + form.text;
  key.hash = fnv1a64(key.text);
  key.order = std::move(form.order);
  return key;
}

}  // namespace

CacheKey make_cache_key(const Circuit& c, const FlowOptions& options, FlowKind kind) {
  std::ostringstream os;
  os << "flow " << flow_kind_name(kind);
  append_option_fields(os, options);
  return finish_cache_key(c, os.str());
}

CacheKey make_portfolio_cache_key(const Circuit& c, const FlowOptions& options,
                                  const std::vector<const EngineSpec*>& engines) {
  // The ordered engine list with per-spec fingerprints: order matters (it is
  // the selection tie-break), and the fingerprint covers every spec field
  // that shapes the run, so editing a registry engine invalidates its
  // portfolios' entries.
  std::ostringstream os;
  os << "portfolio";
  for (const EngineSpec* spec : engines) {
    os << ' ' << spec->name << '=' << fnv1a64(spec->fingerprint());
  }
  append_option_fields(os, options);
  return finish_cache_key(c, os.str());
}

const char* hot_policy_name(HotPolicy policy) {
  return policy == HotPolicy::kCostAware ? "cost-aware" : "recency";
}

std::optional<HotPolicy> parse_hot_policy(std::string_view name) {
  if (name == "recency") return HotPolicy::kRecency;
  if (name == "cost-aware") return HotPolicy::kCostAware;
  return std::nullopt;
}

FlowCache::FlowCache(std::string dir) : dir_(std::move(dir)) {}

namespace {

/// Estimated resident size of one hot-tier entry: the dominant heap blocks
/// (key text, labels, probes) plus the bookkeeping structs.
/// An estimate is enough — the cap bounds memory to the right order, it is
/// not an allocator ledger.
std::size_t hot_entry_size(const std::string& key_text, const CacheEntry& entry) {
  return sizeof(CacheEntry) + 2 * sizeof(void*) + key_text.size() +
         entry.winning_labels.size() * sizeof(int) + entry.probes.size() * sizeof(CachedProbe);
}

}  // namespace

void FlowCache::enable_hot_tier(std::size_t max_bytes, std::size_t max_entries) {
  const std::lock_guard<std::mutex> lock(hot_mu_);
  hot_max_bytes_ = max_bytes;
  hot_max_entries_ = max_entries;
  if (hot_max_bytes_ == 0) {
    hot_index_.clear();
    hot_lru_.clear();
    hot_bytes_now_ = 0;
    return;
  }
  hot_evict_locked();  // shrinking the caps evicts down immediately
}

bool FlowCache::hot_tier_enabled() const {
  const std::lock_guard<std::mutex> lock(hot_mu_);
  return hot_max_bytes_ > 0;
}

void FlowCache::set_hot_policy(HotPolicy policy) {
  const std::lock_guard<std::mutex> lock(hot_mu_);
  hot_policy_ = policy;
}

HotPolicy FlowCache::hot_policy() const {
  const std::lock_guard<std::mutex> lock(hot_mu_);
  return hot_policy_;
}

double FlowCache::hot_cost_retained_seconds() const {
  const std::lock_guard<std::mutex> lock(hot_mu_);
  return hot_cost_retained_seconds_;
}

std::int64_t FlowCache::hot_entries() const {
  const std::lock_guard<std::mutex> lock(hot_mu_);
  return static_cast<std::int64_t>(hot_lru_.size());
}

std::int64_t FlowCache::hot_bytes() const {
  const std::lock_guard<std::mutex> lock(hot_mu_);
  return static_cast<std::int64_t>(hot_bytes_now_);
}

namespace {

/// The kCostAware eviction score: the entry's probe wall time decayed by a
/// half-life of `kHotHalfLife` hot-tier accesses since it was last touched.
/// Purely logical time (access ticks, not wall clock), so the victim
/// sequence is a deterministic function of the access sequence — which the
/// fuzz oracle and the eviction-order tests rely on.
constexpr double kHotHalfLife = 16.0;

double hot_score(double cost, std::uint64_t now, std::uint64_t last_use) {
  const double age = static_cast<double>(now - last_use);
  return cost * std::exp2(-age / kHotHalfLife);
}

}  // namespace

void FlowCache::hot_evict_locked() const {
  while (!hot_lru_.empty() &&
         (hot_bytes_now_ > hot_max_bytes_ ||
          (hot_max_entries_ > 0 && hot_lru_.size() > hot_max_entries_))) {
    // Recency: the LRU tail. Cost-aware: the minimum decayed-cost score,
    // ties broken toward the older last_use (and ultimately toward the tail,
    // which the backward scan's strict `<` guarantees) — so zero-cost
    // entries degrade to exact LRU order.
    auto victim_it = std::prev(hot_lru_.end());
    if (hot_policy_ == HotPolicy::kCostAware && hot_lru_.size() > 1) {
      double best = hot_score(victim_it->cost, hot_tick_, victim_it->last_use);
      std::uint64_t best_last = victim_it->last_use;
      for (auto it = std::prev(victim_it);; --it) {
        const double score = hot_score(it->cost, hot_tick_, it->last_use);
        if (score < best || (score == best && it->last_use < best_last)) {
          best = score;
          best_last = it->last_use;
          victim_it = it;
        }
        if (it == hot_lru_.begin()) break;
      }
      if (std::next(victim_it) != hot_lru_.end()) {
        // The score spared the LRU tail: count the eviction as cost-driven
        // and credit the recompute seconds the tail keeps resident.
        hot_cost_evictions_.fetch_add(1, std::memory_order_relaxed);
        hot_cost_retained_seconds_ += hot_lru_.back().cost;
      }
    }
    hot_bytes_now_ -= std::min(hot_bytes_now_, victim_it->bytes);
    hot_index_.erase(victim_it->hash);
    hot_lru_.erase(victim_it);
    hot_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::optional<CacheEntry> FlowCache::hot_lookup(const CacheKey& key) const {
  const std::lock_guard<std::mutex> lock(hot_mu_);
  if (hot_max_bytes_ == 0) return std::nullopt;
  const auto it = hot_index_.find(key.hash);
  if (it == hot_index_.end()) return std::nullopt;
  // Same rule as disk: hash equality is never trusted. A 64-bit collision
  // degrades to a (disk) miss for the colliding key, never a wrong artifact.
  if (it->second->key_text != key.text) return std::nullopt;
  hot_lru_.splice(hot_lru_.begin(), hot_lru_, it->second);  // bump to MRU
  it->second->last_use = ++hot_tick_;
  hot_hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->entry;  // a copy: callers remap their copy in place
}

void FlowCache::hot_insert(const CacheKey& key, const CacheEntry& entry) const {
  const std::lock_guard<std::mutex> lock(hot_mu_);
  if (hot_max_bytes_ == 0) return;
  const std::size_t bytes = hot_entry_size(key.text, entry);
  if (bytes > hot_max_bytes_) return;  // would evict everything and still not fit
  if (const auto it = hot_index_.find(key.hash); it != hot_index_.end()) {
    // Re-admit under the same hash (refresh, or a collision's last-writer-
    // wins, mirroring the on-disk entry file): replace in place at MRU.
    hot_bytes_now_ -= std::min(hot_bytes_now_, it->second->bytes);
    hot_lru_.erase(it->second);
    hot_index_.erase(it);
  }
  hot_lru_.push_front(HotEntry{key.hash, key.text, entry, bytes,
                               entry.flow_wall_seconds, ++hot_tick_});
  hot_index_[key.hash] = hot_lru_.begin();
  hot_bytes_now_ += bytes;
  hot_evict_locked();
}

std::string FlowCache::entry_path(const CacheKey& key) const {
  return dir_ + "/" + hex64(key.hash) + ".tsce";
}

bool FlowCache::storable(const FlowResult& result) {
  return result.status == Status::kOk && !result.timed_out && result.artifacts.valid &&
         result.artifacts.labels.feasible && !result.probes.empty();
}

CacheEntry FlowCache::entry_from_result(const FlowResult& result, const CacheKey& key) {
  CacheEntry entry;
  entry.winner = result.engine;  // empty for standalone flows
  entry.phi = result.artifacts.phi;
  entry.mode = result.artifacts.mode;
  entry.max_po_label = result.artifacts.labels.max_po_label;
  // Schema v2: labels are persisted in canonical order so they survive
  // parses that assigned different input ids.
  const std::vector<NodeId>& order = key.order;
  const std::vector<int>& by_id = result.artifacts.labels.labels;
  if (by_id.size() == order.size()) {
    entry.winning_labels.resize(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      entry.winning_labels[i] = by_id[static_cast<std::size_t>(order[i])];
    }
  }
  const std::uint64_t canon_hash = hash_labels(std::span<const int>(entry.winning_labels));
  entry.probes.reserve(result.probes.size());
  for (const ProbeRecord& rec : result.probes) {
    CachedProbe p;
    p.engine = rec.engine;
    p.phi = rec.phi;
    p.mode = rec.mode;
    p.outcome = rec.outcome;
    p.status = rec.status;
    p.feasible = rec.feasible;
    p.label_hash = rec.label_hash;
    p.max_po_label = rec.max_po_label;
    // The winning record's hash certifies the labels as stored, i.e. in
    // canonical order; a hit recomputes it over the remapped vector. The
    // engine clause keeps a losing engine's record at the same (mode, φ)
    // from masquerading as the certificate.
    if (p.engine == entry.winner && p.mode == entry.mode && p.phi == entry.phi) {
      p.label_hash = canon_hash;
    }
    entry.probes.push_back(p);
  }
  entry.luts = result.luts;
  entry.ffs = result.ffs;
  entry.mdr_num = result.exact_mdr.num();
  entry.mdr_den = result.exact_mdr.den();
  entry.period = result.period;
  entry.pipeline_stages = result.pipeline_stages;
  // Schema v5 cost: the probe wall time the ledger already recorded — the
  // compute a later hit saves, and what the cost-aware hot tier scores by.
  // Imported (replayed) records carry no wall time, so a stored re-run of a
  // hit keeps cost 0 rather than inventing one.
  double cost = 0.0;
  for (const ProbeRecord& rec : result.probes) {
    if (rec.seconds > 0.0 && std::isfinite(rec.seconds)) cost += rec.seconds;
  }
  entry.flow_wall_seconds = cost;
  return entry;
}

std::optional<CacheEntry> FlowCache::lookup(const CacheKey& key) const {
  // Hot tier first: a resident entry was already validated on its way in,
  // so the whole filesystem path (and its failpoint, which models the file
  // read) is skipped.
  if (std::optional<CacheEntry> hot = hot_lookup(key); hot.has_value()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return hot;
  }
  if (read_fault("cache.entry.read")) {
    // Transient read failure: degrade to a miss immediately. A miss is
    // already sound (the flow just recomputes), so the read path never
    // burns backoff sleeps the way store() does.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  bool existed = false;
  std::optional<ParsedEntry> parsed = parse_entry_file(entry_path(key), &existed);
  if (!parsed.has_value()) {
    // A file that was present but failed parse or checksum is a torn entry
    // demoted to a clean miss — counted, never served.
    if (existed) recovered_entries_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  // Collision check: the stored canonical key must match byte for byte.
  if (parsed->hash != key.hash || parsed->key_text != key.text) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  hot_insert(key, parsed->entry);  // the next lookup skips the file entirely
  return std::move(parsed->entry);
}

bool FlowCache::store_result(const CacheKey& key, const FlowResult& result) {
  if (!storable(result)) {
    rejects_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return store(key, entry_from_result(result, key));
}

bool FlowCache::store(const CacheKey& key, const CacheEntry& entry) {
  if (entry.winning_labels.empty() || entry.probes.empty()) {
    rejects_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    rejects_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  std::ostringstream os;
  os << "turbosyn-cache " << kSchemaVersion << '\n';
  os << "hash " << hex64(key.hash) << '\n';
  os << "key " << key.text.size() << '\n' << key.text << '\n';
  os << "status ok\n";
  os << "winner " << engine_token(entry.winner) << '\n';
  os << "phi " << entry.phi << " mode " << static_cast<int>(entry.mode) << " maxpo "
     << entry.max_po_label << '\n';
  os << "result " << entry.luts << ' ' << entry.ffs << ' ' << entry.mdr_num << ' '
     << entry.mdr_den << ' ' << entry.period << ' ' << entry.pipeline_stages << '\n';
  os << "cost " << real_token(entry.flow_wall_seconds) << '\n';
  os << "probes " << entry.probes.size() << '\n';
  for (const CachedProbe& p : entry.probes) {
    os << "p " << engine_token(p.engine) << ' ' << static_cast<int>(p.mode) << ' '
       << p.phi << ' ' << static_cast<int>(p.outcome) << ' ' << static_cast<int>(p.status)
       << ' ' << (p.feasible ? 1 : 0) << ' ' << hex64(p.label_hash) << ' '
       << p.max_po_label << '\n';
  }
  os << "labels " << entry.winning_labels.size() << '\n';
  for (std::size_t i = 0; i < entry.winning_labels.size(); ++i) {
    os << entry.winning_labels[i] << (i + 1 == entry.winning_labels.size() ? '\n' : ' ');
  }
  os << "end\n";

  // Schema v3 trailer: length + FNV-1a checksum over the whole payload, so a
  // torn write that still renamed is detected on read instead of served.
  const std::string payload = os.str();
  const std::string data = payload + "sum " + std::to_string(payload.size()) + ' ' +
                           hex64(fnv1a64(payload)) + '\n';

  // Unique tmp name per writer, then an atomic rename: concurrent stores of
  // the same key are last-writer-wins with no torn intermediate state. A
  // transient write/rename failure (ENOSPC blips, AV/backup scanners holding
  // the file, injected cache.entry.{write,rename} faults) is retried with a
  // short deterministic backoff — unlike reads, a lost store costs a full
  // recompute on every later run, so a couple of millisecond sleeps pay off.
  static std::atomic<std::uint64_t> tmp_seq{0};
  const std::string final_path = entry_path(key);

  const auto attempt_store = [&]() -> bool {
    std::string_view body = data;
    try {
      if (failpoint::enabled()) {
        const failpoint::Hit w = failpoint::check("cache.entry.write");
        if (w.action == failpoint::Action::kError) return false;
        if (w.action == failpoint::Action::kPartialWrite) {
          // Simulate a torn write that still completes the rename: exactly
          // the state an fsync-less crash can leave behind.
          body = body.substr(0, std::min<std::size_t>(
                                    body.size(),
                                    w.arg < 0 ? 0 : static_cast<std::size_t>(w.arg)));
        }
      }
    } catch (...) {
      return false;  // a kThrow policy fails the attempt, never the caller
    }
    const std::string tmp_path =
        final_path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(tmp_seq.fetch_add(1, std::memory_order_relaxed));
    std::error_code attempt_ec;
    {
      std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
      if (!out) return false;
      out.write(body.data(), static_cast<std::streamsize>(body.size()));
      out.flush();
      if (!out.good()) {
        out.close();
        std::filesystem::remove(tmp_path, attempt_ec);
        return false;
      }
    }
    try {
      if (failpoint::enabled() &&
          failpoint::check("cache.entry.rename").action == failpoint::Action::kError) {
        std::filesystem::remove(tmp_path, attempt_ec);
        return false;
      }
    } catch (...) {
      std::filesystem::remove(tmp_path, attempt_ec);
      return false;
    }
    std::filesystem::rename(tmp_path, final_path, attempt_ec);
    if (attempt_ec) {
      std::filesystem::remove(tmp_path, attempt_ec);
      return false;
    }
    return true;
  };

  constexpr int kMaxAttempts = 3;
  constexpr std::chrono::milliseconds kBackoff[] = {std::chrono::milliseconds(1),
                                                    std::chrono::milliseconds(4)};
  bool written = false;
  for (int attempt = 0; attempt < kMaxAttempts && !written; ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(kBackoff[attempt - 1]);
    }
    written = attempt_store();
  }
  if (!written) {
    rejects_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
  // Write-through admission: the entry just certified storable is exactly
  // what a repeat request will ask for.
  hot_insert(key, entry);
  return true;
}

FlowCache::RecoveryStats FlowCache::recover() {
  RecoveryStats stats;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir_, ec);
  if (ec) return stats;  // no directory yet: nothing to recover

  // One scan, two buckets. Files the cache does not own (including the
  // near-miss index sidecars older versions wrote) are left alone.
  std::vector<std::filesystem::path> tmps;
  std::vector<std::filesystem::path> entries;
  for (const auto& de : it) {
    if (!de.is_regular_file(ec)) continue;
    const std::string name = de.path().filename().string();
    if (name.find(".tmp.") != std::string::npos) {
      tmps.push_back(de.path());
    } else if (name.ends_with(".tsce")) {
      entries.push_back(de.path());
    }
  }

  for (const auto& path : tmps) {
    // A stray tmp is a writer that died between write and rename; the rename
    // never happened, so no reader can be depending on it.
    if (std::filesystem::remove(path, ec) && !ec) {
      ++stats.stray_tmp;
      recovered_tmp_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  for (const auto& path : entries) {
    bool existed = false;
    const std::optional<ParsedEntry> parsed = parse_entry_file(path.string(), &existed);
    // Unparseable, checksum-failing, or filed under the wrong name (a stale
    // rename): lookup would demote it on every read; delete it once here.
    const bool healthy =
        parsed.has_value() && path.filename().string() == hex64(parsed->hash) + ".tsce";
    if (!existed || healthy) continue;
    if (std::filesystem::remove(path, ec) && !ec) {
      ++stats.torn_entries;
      recovered_entries_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return stats;
}

}  // namespace turbosyn
