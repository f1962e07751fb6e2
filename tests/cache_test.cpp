// Tests for the persistent flow-artifact cache (src/cache) and the batch
// multi-circuit scheduler (src/service): canonical keying, hit/miss
// bit-identity, the malformed-entry and quarantine rules of DESIGN.md §11,
// concurrent writers, and the batch manifest format.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/check.hpp"
#include "base/failpoint.hpp"
#include "base/trace.hpp"
#include "cache/cached_flow.hpp"
#include "cache/flow_cache.hpp"
#include "decomp/gate_decomp.hpp"
#include "netlist/blif.hpp"
#include "netlist/canonical.hpp"
#include "service/batch_runner.hpp"
#include "verify/audit.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"
#include "test_dir.hpp"

namespace turbosyn {
namespace {

namespace fs = std::filesystem;

fs::path test_dir(const std::string& leaf) {
  return unique_test_dir("ts_cache_test_", leaf);
}

std::string fingerprint(const FlowResult& r) {
  return std::to_string(r.phi) + "|" + std::to_string(r.period) + "|" +
         std::to_string(r.pipeline_stages) + "|" + write_blif_string(r.mapped, "fp");
}

/// What a hit served without artifacts must reproduce: the result summary.
std::string summary_fingerprint(const FlowResult& r) {
  std::ostringstream os;
  os << r.phi << '|' << r.period << '|' << r.pipeline_stages << '|' << r.luts << '|' << r.ffs
     << '|' << r.exact_mdr;
  return os.str();
}

FlowOptions small_options() {
  FlowOptions opt;
  opt.k = 4;
  return opt;
}

/// A K-bounded copy of the sample (the flows require K-bounded inputs).
Circuit bounded_sample(const std::string& blif, int k = 4) {
  Circuit c = read_blif_string(blif);
  if (!c.is_k_bounded(k)) c = gate_decompose(c, k);
  return c;
}

// ---------------------------------------------------------------------------
// Canonical form and keying

TEST(CanonicalForm, IndependentOfDeclarationOrder) {
  // The same two-LUT netlist with the gate declarations (and output list)
  // permuted: node ids differ, the canonical form must not.
  const char* forward =
      ".model t\n.inputs a b\n.outputs y z\n"
      ".names a b y\n11 1\n"
      ".names a b z\n10 1\n"
      ".end\n";
  const char* reversed =
      ".model t\n.inputs b a\n.outputs z y\n"
      ".names a b z\n10 1\n"
      ".names a b y\n11 1\n"
      ".end\n";
  const CanonicalForm lhs = canonical_circuit_form(read_blif_string(forward));
  const CanonicalForm rhs = canonical_circuit_form(read_blif_string(reversed));
  EXPECT_EQ(lhs.text, rhs.text);
  EXPECT_EQ(lhs.hash, rhs.hash);
}

TEST(CanonicalForm, DistinguishesLogicAndStructure) {
  const Circuit counter = read_blif_string(counter3_blif());
  const Circuit fsm = read_blif_string(pattern_fsm_blif());
  EXPECT_NE(canonical_circuit_form(counter).text, canonical_circuit_form(fsm).text);

  // Same wires, different truth table: must change the form.
  const char* and_gate = ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n";
  const char* or_gate = ".model t\n.inputs a b\n.outputs y\n.names a b y\n1- 1\n-1 1\n.end\n";
  EXPECT_NE(canonical_circuit_form(read_blif_string(and_gate)).text,
            canonical_circuit_form(read_blif_string(or_gate)).text);
}

TEST(CacheKey, CoversResultRelevantOptionsOnly) {
  const Circuit c = read_blif_string(counter3_blif());
  FlowOptions opt = small_options();
  const CacheKey base = make_cache_key(c, opt, FlowKind::kTurboSyn);

  FlowOptions other_k = opt;
  other_k.k = 5;
  EXPECT_NE(base.hash, make_cache_key(c, other_k, FlowKind::kTurboSyn).hash);
  EXPECT_NE(base.text, make_cache_key(c, other_k, FlowKind::kTurboSyn).text);

  EXPECT_NE(base.text, make_cache_key(c, opt, FlowKind::kTurboMap).text);

  // Thread count and observability knobs must not split the key space.
  FlowOptions threads = opt;
  threads.num_threads = 8;
  threads.collect_artifacts = true;
  EXPECT_EQ(base.text, make_cache_key(c, threads, FlowKind::kTurboSyn).text);
}

// ---------------------------------------------------------------------------
// Hit/miss behavior of run_flow_cached

TEST(FlowCacheRun, HitIsBitIdenticalWithUncachedAndAuditsClean) {
  const fs::path dir = test_dir("hit");
  const Circuit c = bounded_sample(gray_counter_blif());
  FlowOptions opt = small_options();
  opt.collect_artifacts = true;  // for the audit below

  const FlowResult uncached = run_turbosyn(c, opt);

  FlowCache cache(dir.string());
  CacheRunInfo cold_info;
  const FlowResult cold = run_flow_cached(FlowKind::kTurboSyn, c, opt, &cache, &cold_info);
  EXPECT_FALSE(cold_info.hit);
  EXPECT_TRUE(cold_info.stored);
  EXPECT_EQ(cache.stores(), 1);
  EXPECT_EQ(fingerprint(cold), fingerprint(uncached));

  CacheRunInfo warm_info;
  const FlowResult warm = run_flow_cached(FlowKind::kTurboSyn, c, opt, &cache, &warm_info);
  EXPECT_TRUE(warm_info.hit);
  EXPECT_FALSE(warm_info.stored);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(fingerprint(warm), fingerprint(uncached));
  EXPECT_EQ(write_blif_string(warm.mapped, "m"), write_blif_string(uncached.mapped, "m"));

  // The hit replays the search from imported records only — no label probe
  // may have run — and the imported ledger must still satisfy the auditor.
  ASSERT_FALSE(warm.probes.empty());
  for (const ProbeRecord& probe : warm.probes) EXPECT_TRUE(probe.imported);
  AuditOptions audit;
  audit.seq_cycles = 64;
  const AuditReport report = audit_flow(c, warm, opt, audit);
  EXPECT_TRUE(report.passed()) << report.breakdown();
}

TEST(FlowCacheRun, DistinctOptionsMissAndNullCachePassesThrough) {
  const fs::path dir = test_dir("miss");
  const Circuit c = read_blif_string(counter3_blif());
  FlowCache cache(dir.string());

  FlowOptions opt = small_options();
  CacheRunInfo info;
  (void)run_flow_cached(FlowKind::kTurboSyn, c, opt, &cache, &info);
  EXPECT_TRUE(info.stored);

  // A different K is a different key: miss, then its own entry.
  FlowOptions k5 = opt;
  k5.k = 5;
  (void)run_flow_cached(FlowKind::kTurboSyn, c, k5, &cache, &info);
  EXPECT_FALSE(info.hit);
  EXPECT_EQ(cache.stores(), 2);

  // FlowSYN-s runs no label search and always passes through uncached.
  (void)run_flow_cached(FlowKind::kFlowSynS, c, opt, &cache, &info);
  EXPECT_FALSE(info.hit);
  EXPECT_FALSE(info.stored);

  // No cache at all: plain run_flow.
  const FlowResult plain = run_flow_cached(FlowKind::kTurboSyn, c, opt, nullptr, &info);
  EXPECT_FALSE(info.hit);
  EXPECT_FALSE(info.stored);
  EXPECT_GT(plain.luts, 0);
}

TEST(FlowCacheRun, SummaryHitRunsNoMappingStages) {
  const fs::path dir = test_dir("summary_hit");
  const Circuit c = bounded_sample(gray_counter_blif());
  const FlowOptions opt = small_options();
  FlowCache cache(dir.string());
  CacheRunInfo info;
  const FlowResult cold = run_flow_cached(FlowKind::kTurboSyn, c, opt, &cache, &info);
  ASSERT_TRUE(info.stored);

  TraceSink trace;
  FlowOptions traced = opt;
  traced.trace = &trace;
  const FlowResult hit = run_flow_cached(FlowKind::kTurboSyn, c, traced, &cache, &info);
  ASSERT_TRUE(info.hit);
  EXPECT_EQ(hit.status, Status::kOk);
  EXPECT_EQ(summary_fingerprint(hit), summary_fingerprint(cold));
  EXPECT_EQ(hit.mapped.num_nodes(), 0);
  EXPECT_FALSE(hit.artifacts.valid);

  // The only stage is the cached search, and it still reports its imports —
  // on the StageMetric and on its trace span alike.
  ASSERT_EQ(hit.stage_metrics.stages.size(), 1u);
  const StageMetric& stage = hit.stage_metrics.stages.front();
  EXPECT_EQ(stage.name, "cached-search");
  EXPECT_EQ(stage.counter("imported_probes"), static_cast<std::int64_t>(cold.probes.size()));
  int cached_spans = 0;
  for (const TraceEvent& e : trace.events()) {
    EXPECT_TRUE(e.name != "stage:mapgen" && e.name != "stage:pack" &&
                e.name != "stage:pipeline-retime")
        << e.name;
    if (e.name != "stage:cached-search") continue;
    ++cached_spans;
    std::int64_t imported = 0;
    for (const auto& [name, value] : e.counters) {
      if (name == "imported_probes") imported = value;
    }
    EXPECT_EQ(imported, static_cast<std::int64_t>(cold.probes.size()));
  }
  EXPECT_EQ(cached_spans, 1);

  // The ledger is record for record the one an artifact-collecting hit
  // imports, including the input-order hash on the winning record.
  FlowOptions artifacts = opt;
  artifacts.collect_artifacts = true;
  const FlowResult replay = run_flow_cached(FlowKind::kTurboSyn, c, artifacts, &cache, &info);
  ASSERT_TRUE(info.hit);
  ASSERT_EQ(hit.probes.size(), replay.probes.size());
  for (std::size_t i = 0; i < hit.probes.size(); ++i) {
    const ProbeRecord& a = hit.probes[i];
    const ProbeRecord& b = replay.probes[i];
    EXPECT_TRUE(a.imported);
    EXPECT_EQ(a.engine, b.engine);
    EXPECT_EQ(a.phi, b.phi);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.label_hash, b.label_hash);
    EXPECT_EQ(a.max_po_label, b.max_po_label);
    EXPECT_EQ(a.label_hash, cold.probes[i].label_hash);
  }
}

TEST(FlowCacheRun, ArtifactHitAfterSummaryPopulateReplaysBitIdentically) {
  // Entries stored by callers that never asked for artifacts still let a
  // later artifact-collecting caller regenerate the exact mapped network,
  // for both objectives (pipelined MDR and retime-only period).
  const Circuit c = bounded_sample(traffic_light_blif());
  for (const FlowKind kind : {FlowKind::kTurboMap, FlowKind::kTurboMapPeriod}) {
    const fs::path dir = test_dir(std::string("artifact_hit_") + flow_kind_name(kind));
    FlowCache cache(dir.string());
    CacheRunInfo info;
    (void)run_flow_cached(kind, c, small_options(), &cache, &info);
    ASSERT_TRUE(info.stored);

    FlowOptions artifacts = small_options();
    artifacts.collect_artifacts = true;
    const FlowResult uncached = run_flow(kind, c, artifacts);
    const FlowResult hit = run_flow_cached(kind, c, artifacts, &cache, &info);
    ASSERT_TRUE(info.hit);
    EXPECT_EQ(fingerprint(hit), fingerprint(uncached)) << flow_kind_name(kind);
    EXPECT_EQ(summary_fingerprint(hit), summary_fingerprint(uncached));
    EXPECT_TRUE(hit.artifacts.valid);
    AuditOptions audit;
    audit.seq_cycles = 64;
    const AuditReport report = audit_flow(c, hit, artifacts, audit);
    EXPECT_TRUE(report.passed()) << flow_kind_name(kind) << '\n' << report.breakdown();
  }
}

TEST(FlowCacheHotTier, ResidentSizeIgnoresTheMappedNetwork) {
  // Entries keep no mapped network, so the hot-tier size estimate of an
  // entry cannot depend on how large the result's network was.
  const Circuit c = bounded_sample(gray_counter_blif());
  FlowOptions opt = small_options();
  opt.collect_artifacts = true;
  const FlowResult result = run_turbosyn(c, opt);
  ASSERT_TRUE(FlowCache::storable(result));
  FlowResult bigger = result;
  bigger.mapped = generate_fsm_circuit(table1_suite()[0]);
  ASSERT_GT(bigger.mapped.num_nodes(), 4 * result.mapped.num_nodes());

  const CacheKey key = make_cache_key(c, opt, FlowKind::kTurboSyn);
  FlowCache small_cache(test_dir("hot_size_small").string());
  FlowCache big_cache(test_dir("hot_size_big").string());
  small_cache.enable_hot_tier(16u << 20);
  big_cache.enable_hot_tier(16u << 20);
  ASSERT_TRUE(small_cache.store_result(key, result));
  ASSERT_TRUE(big_cache.store_result(key, bigger));
  EXPECT_EQ(small_cache.hot_entries(), 1);
  EXPECT_GT(small_cache.hot_bytes(), 0);
  EXPECT_EQ(big_cache.hot_bytes(), small_cache.hot_bytes());
  EXPECT_EQ(fs::file_size(big_cache.entry_path(key)), fs::file_size(small_cache.entry_path(key)));
}

// ---------------------------------------------------------------------------
// Legacy directories: files the cache does not own are left alone

TEST(FlowCacheLegacyDir, StraySidecarIsIgnored) {
  const fs::path dir = test_dir("legacy_sidecar");
  const Circuit c = read_blif_string(counter3_blif());
  const FlowOptions opt = small_options();
  {
    FlowCache cache(dir.string());
    CacheRunInfo info;
    (void)run_flow_cached(FlowKind::kTurboMap, c, opt, &cache, &info);
    ASSERT_TRUE(info.stored);
  }
  // An old-format near-miss index sidecar pointing at the entry just stored,
  // as older versions wrote next to every entry.
  const CacheKey key = make_cache_key(c, opt, FlowKind::kTurboMap);
  const fs::path sidecar = dir / "near_0123456789abcdef.tsni";
  {
    std::ofstream out(sidecar);
    char hash[17];
    std::snprintf(hash, sizeof(hash), "%016llx", static_cast<unsigned long long>(key.hash));
    out << "turbosyn-near 1\n" << hash << '\n';
  }

  FlowCache cache(dir.string());
  const FlowCache::RecoveryStats rec = cache.recover();
  EXPECT_EQ(rec.total(), 0);
  EXPECT_TRUE(fs::exists(sidecar));  // not ours: neither read nor deleted
  EXPECT_TRUE(fs::exists(cache.entry_path(key)));

  // Exact hits still serve the cold summary, and an artifact-collecting hit
  // replays the mapped network bit-identically.
  const FlowResult cold = run_turbomap(c, opt);
  CacheRunInfo info;
  const FlowResult hit = run_flow_cached(FlowKind::kTurboMap, c, opt, &cache, &info);
  EXPECT_TRUE(info.hit);
  EXPECT_EQ(summary_fingerprint(hit), summary_fingerprint(cold));
  FlowOptions artifacts = opt;
  artifacts.collect_artifacts = true;
  const FlowResult replay = run_flow_cached(FlowKind::kTurboMap, c, artifacts, &cache, &info);
  EXPECT_TRUE(info.hit);
  EXPECT_EQ(fingerprint(replay), fingerprint(cold));

  // New entries store next to the stray file.
  FlowOptions k5 = opt;
  k5.k = 5;
  (void)run_flow_cached(FlowKind::kTurboMap, c, k5, &cache, &info);
  EXPECT_FALSE(info.hit);
  EXPECT_TRUE(info.stored);
  (void)run_flow_cached(FlowKind::kTurboMap, c, k5, &cache, &info);
  EXPECT_TRUE(info.hit);

  // A second recovery pass still finds nothing torn, and leaves no tmp file.
  EXPECT_EQ(cache.recover().total(), 0);
  for (const auto& de : fs::directory_iterator(dir)) {
    EXPECT_EQ(de.path().filename().string().find(".tmp."), std::string::npos)
        << de.path();
  }
  EXPECT_EQ(cache.recovered_entries(), 0);
  EXPECT_EQ(cache.recovered_tmp(), 0);
}

// ---------------------------------------------------------------------------
// Malformed entries: every corruption is a clean miss

class FlowCacheEntryFile : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_dir("entry_file");
    circuit_ = read_blif_string(counter3_blif());
    options_ = small_options();
    key_ = make_cache_key(circuit_, options_, FlowKind::kTurboSyn);
    cache_ = std::make_unique<FlowCache>(dir_.string());
    CacheRunInfo info;
    (void)run_flow_cached(FlowKind::kTurboSyn, circuit_, options_, cache_.get(), &info);
    ASSERT_TRUE(info.stored);
    path_ = cache_->entry_path(key_);
    ASSERT_TRUE(fs::exists(path_));
  }

  std::string read_entry() const {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  void write_entry(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  /// The stored entry's body (everything before the checksum trailer),
  /// relabelled as schema `version`.
  std::string body_as(int version) const {
    const std::string bytes = read_entry();
    const std::string header = "turbosyn-cache " + std::to_string(FlowCache::kSchemaVersion);
    const std::size_t sum = bytes.rfind("\nsum ");
    EXPECT_EQ(bytes.rfind(header, 0), 0u);
    EXPECT_NE(sum, std::string::npos);
    return "turbosyn-cache " + std::to_string(version) +
           bytes.substr(header.size(), sum + 1 - header.size());
  }

  /// `body` with a valid checksum trailer, as its writer would have left it.
  static std::string sealed(const std::string& body) {
    char checksum[17];
    std::snprintf(checksum, sizeof(checksum), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(body)));
    return body + "sum " + std::to_string(body.size()) + ' ' + checksum + '\n';
  }

  /// The stored entry relabelled as schema `version`, checksum intact.
  std::string with_schema(int version) const { return sealed(body_as(version)); }

  fs::path dir_;
  Circuit circuit_;
  FlowOptions options_;
  CacheKey key_;
  std::unique_ptr<FlowCache> cache_;
  std::string path_;
};

TEST_F(FlowCacheEntryFile, IntactEntryHits) {
  EXPECT_TRUE(cache_->lookup(key_).has_value());
}

TEST_F(FlowCacheEntryFile, SchemaVersionMismatchIsACleanMiss) {
  std::string bytes = read_entry();
  const std::string header =
      "turbosyn-cache " + std::to_string(FlowCache::kSchemaVersion);
  ASSERT_EQ(bytes.rfind(header, 0), 0u);
  bytes.replace(0, header.size(), "turbosyn-cache 999");
  write_entry(bytes);
  EXPECT_FALSE(cache_->lookup(key_).has_value());

  // The miss is recoverable: a fresh run repopulates and hits again.
  CacheRunInfo info;
  (void)run_flow_cached(FlowKind::kTurboSyn, circuit_, options_, cache_.get(), &info);
  EXPECT_FALSE(info.hit);
  EXPECT_TRUE(info.stored);
  EXPECT_TRUE(cache_->lookup(key_).has_value());
}

TEST_F(FlowCacheEntryFile, SchemaV6EntryIsACleanMiss) {
  // v6 keys named the multiplicity engine; later keys do not. A v6 entry with
  // an intact checksum trailer must still read as a miss.
  ASSERT_GT(FlowCache::kSchemaVersion, 6);
  write_entry(with_schema(6));
  EXPECT_FALSE(cache_->lookup(key_).has_value());
  EXPECT_EQ(key_.text.find(" bdd "), std::string::npos);
}

TEST_F(FlowCacheEntryFile, SchemaV7EntryIsACleanMiss) {
  // v7 entries could store a power-of-two pipeline depth where the flow now
  // reports the minimum; an intact v7 entry must read as a miss, never serve
  // the stale stage count.
  ASSERT_GT(FlowCache::kSchemaVersion, 7);
  write_entry(with_schema(7));
  EXPECT_FALSE(cache_->lookup(key_).has_value());
}

TEST_F(FlowCacheEntryFile, SchemaV8EntryIsACountedCleanMiss) {
  // v8 entries carried the probe wall time on a "cost" line after the result
  // summary. An intact v8 entry must read as a miss that counts as a
  // recovered entry, and the rerun stores it again without the line.
  ASSERT_EQ(FlowCache::kSchemaVersion, 9);
  std::string v8 = body_as(8);
  const std::size_t probes = v8.find("\nprobes ");
  ASSERT_NE(probes, std::string::npos);
  v8.insert(probes + 1, "cost 0.25\n");
  write_entry(sealed(v8));
  const std::int64_t misses = cache_->misses();
  const std::int64_t recovered = cache_->recovered_entries();
  EXPECT_FALSE(cache_->lookup(key_).has_value());
  EXPECT_EQ(cache_->misses(), misses + 1);
  EXPECT_EQ(cache_->recovered_entries(), recovered + 1);

  CacheRunInfo info;
  (void)run_flow_cached(FlowKind::kTurboSyn, circuit_, options_, cache_.get(), &info);
  EXPECT_FALSE(info.hit);
  EXPECT_TRUE(info.stored);
  const std::string fresh = read_entry();
  EXPECT_EQ(fresh.rfind("turbosyn-cache 9\n", 0), 0u);
  EXPECT_EQ(fresh.find("\ncost "), std::string::npos);
  EXPECT_TRUE(cache_->lookup(key_).has_value());
}

TEST_F(FlowCacheEntryFile, SchemaV5EntryIsACleanMissThatRepopulates) {
  // Rewrite the stored entry in the v5 layout — a mapped BLIF section before
  // "end" — with a valid checksum trailer, as a v5 writer would have left it.
  std::string v5 = body_as(5);
  const std::string end = "end\n";
  ASSERT_TRUE(v5.ends_with(end));
  const std::string blif = ".model mapped\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n";
  v5.insert(v5.size() - end.size(), "blif " + std::to_string(blif.size()) + '\n' + blif + '\n');
  write_entry(sealed(v5));
  EXPECT_FALSE(cache_->lookup(key_).has_value());

  // The miss repopulates in the current schema, and the next run hits.
  CacheRunInfo info;
  (void)run_flow_cached(FlowKind::kTurboSyn, circuit_, options_, cache_.get(), &info);
  EXPECT_FALSE(info.hit);
  EXPECT_TRUE(info.stored);
  const std::string fresh = read_entry();
  EXPECT_EQ(fresh.rfind("turbosyn-cache " + std::to_string(FlowCache::kSchemaVersion), 0), 0u);
  EXPECT_EQ(fresh.find("\nblif "), std::string::npos);
  (void)run_flow_cached(FlowKind::kTurboSyn, circuit_, options_, cache_.get(), &info);
  EXPECT_TRUE(info.hit);
}

TEST_F(FlowCacheEntryFile, TruncatedEntryIsACleanMiss) {
  const std::string bytes = read_entry();
  for (const double fraction : {0.25, 0.5, 0.9}) {
    write_entry(bytes.substr(0, static_cast<std::size_t>(bytes.size() * fraction)));
    EXPECT_FALSE(cache_->lookup(key_).has_value()) << "fraction " << fraction;
  }
}

TEST_F(FlowCacheEntryFile, CorruptedFieldsAreACleanMiss) {
  const std::string bytes = read_entry();
  // Flip the stored key hash: content addressing must reject the entry.
  {
    std::string hashed = bytes;
    const auto pos = hashed.find("hash ");
    ASSERT_NE(pos, std::string::npos);
    hashed[pos + 5] = hashed[pos + 5] == 'f' ? '0' : 'f';
    write_entry(hashed);
    EXPECT_FALSE(cache_->lookup(key_).has_value());
  }
  // Non-numeric phi.
  {
    std::string garbled = bytes;
    const auto pos = garbled.find("\nphi ");
    ASSERT_NE(pos, std::string::npos);
    garbled[pos + 5] = 'x';
    write_entry(garbled);
    EXPECT_FALSE(cache_->lookup(key_).has_value());
  }
  // Arbitrary binary garbage.
  write_entry(std::string(256, '\xff'));
  EXPECT_FALSE(cache_->lookup(key_).has_value());
  // Empty file (a writer that never completed its rename cannot produce
  // this, but a full disk can).
  write_entry("");
  EXPECT_FALSE(cache_->lookup(key_).has_value());
}

TEST_F(FlowCacheEntryFile, KeyTextCollisionIsACleanMiss) {
  // Same hash, different key text (a simulated 64-bit collision): the
  // byte-for-byte key comparison must degrade it to a miss.
  FlowOptions other = options_;
  other.k = 5;
  const CacheKey other_key = make_cache_key(circuit_, other, FlowKind::kTurboSyn);
  CacheKey forged = other_key;
  forged.hash = key_.hash;  // address the existing entry with foreign text
  EXPECT_FALSE(cache_->lookup(forged).has_value());
}

// ---------------------------------------------------------------------------
// Quarantine: degraded or interrupted runs are never stored

TEST(FlowCacheQuarantine, StorableRejectsInexactRuns) {
  const fs::path dir = test_dir("quarantine");
  const Circuit c = read_blif_string(counter3_blif());
  FlowOptions opt = small_options();
  opt.collect_artifacts = true;
  FlowResult exact = run_turbosyn(c, opt);
  ASSERT_EQ(exact.status, Status::kOk);
  ASSERT_TRUE(FlowCache::storable(exact));

  FlowResult degraded = exact;
  degraded.status = Status::kDegraded;
  EXPECT_FALSE(FlowCache::storable(degraded));

  FlowResult interrupted = exact;
  interrupted.timed_out = true;
  EXPECT_FALSE(FlowCache::storable(interrupted));

  FlowResult no_artifacts = exact;
  no_artifacts.artifacts.valid = false;
  EXPECT_FALSE(FlowCache::storable(no_artifacts));

  // store() enforces the same rule and counts the reject.
  FlowCache cache(dir.string());
  const CacheKey key = make_cache_key(c, opt, FlowKind::kTurboSyn);
  EXPECT_FALSE(cache.store(key, FlowCache::entry_from_result(exact, key)) &&
               FlowCache::storable(degraded));
  EXPECT_FALSE(cache.lookup(key).has_value() && !FlowCache::storable(exact));
}

TEST(FlowCacheQuarantine, ExpiredDeadlineRunIsNotStored) {
  const fs::path dir = test_dir("deadline");
  const Circuit c = bounded_sample(gray_counter_blif());
  FlowOptions opt = small_options();
  opt.budget.set_deadline_after_ms(0);

  FlowCache cache(dir.string());
  CacheRunInfo info;
  const FlowResult result = run_flow_cached(FlowKind::kTurboMap, c, opt, &cache, &info);
  ASSERT_TRUE(result.timed_out || result.status != Status::kOk);
  EXPECT_FALSE(info.stored);
  EXPECT_EQ(cache.stores(), 0);
  EXPECT_GE(cache.rejects(), 1);

  // And the poisoned attempt left nothing behind: the next (unlimited) run
  // is a genuine miss, not a stale-certificate hit.
  FlowOptions unlimited = small_options();
  CacheRunInfo clean_info;
  (void)run_flow_cached(FlowKind::kTurboMap, c, unlimited, &cache, &clean_info);
  EXPECT_FALSE(clean_info.hit);
}

// ---------------------------------------------------------------------------
// Concurrency: racing writers and readers (exercised under TSan in CI)

TEST(FlowCacheConcurrency, RacingWritersAndReadersStaySound) {
  const fs::path dir = test_dir("race");
  const Circuit c = read_blif_string(traffic_light_blif());
  FlowOptions opt = small_options();
  FlowCache cache(dir.string());
  const CacheKey key = make_cache_key(c, opt, FlowKind::kTurboSyn);

  // Two batch tasks mapping the same circuit write the same entry while two
  // readers poll: every lookup must see no entry or a complete one.
  const int kWriters = 2;
  const int kReaders = 2;
  const int kRounds = 16;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        CacheRunInfo info;
        const FlowResult result = run_flow_cached(FlowKind::kTurboSyn, c, opt, &cache, &info);
        ASSERT_GT(result.luts, 0);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds * 4; ++round) {
        const std::optional<CacheEntry> entry = cache.lookup(key);
        if (entry.has_value()) {
          ASSERT_GE(entry->phi, 1);
          ASSERT_FALSE(entry->winning_labels.empty());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(cache.lookup(key).has_value());
  EXPECT_GE(cache.hits() + cache.misses(), kWriters * kRounds);
}

TEST(FlowCacheConcurrency, HotTierRacingLookupsStayCoherent) {
  // Many threads hammering a hot tier that holds two of three circuits:
  // splices and evictions race, but every result must stay bit-identical to
  // the single-threaded baseline and the tier must respect its cap
  // throughout. Rounds alternate summary hits (compared on the summary) and
  // artifact-collecting hits (compared on the mapped BLIF too).
  const fs::path dir = test_dir("hot_race");
  FlowOptions opt = small_options();
  FlowOptions artifacts = opt;
  artifacts.collect_artifacts = true;
  FlowCache cache(dir.string());
  cache.enable_hot_tier(8u << 20);

  std::vector<Circuit> circuits;
  circuits.push_back(bounded_sample(counter3_blif()));
  circuits.push_back(bounded_sample(traffic_light_blif()));
  circuits.push_back(bounded_sample(gray_counter_blif()));
  std::vector<std::string> baseline;
  std::vector<std::string> baseline_summary;
  std::vector<std::int64_t> entry_bytes;
  for (const Circuit& c : circuits) {
    const std::int64_t before = cache.hot_bytes();
    const FlowResult cold = run_flow_cached(FlowKind::kTurboSyn, c, opt, &cache);
    baseline.push_back(fingerprint(cold));
    baseline_summary.push_back(summary_fingerprint(cold));
    entry_bytes.push_back(cache.hot_bytes() - before);
  }
  // Cap at the two largest entries: any two fit, all three never do.
  std::sort(entry_bytes.begin(), entry_bytes.end());
  cache.enable_hot_tier(static_cast<std::size_t>(entry_bytes[1] + entry_bytes[2]));

  const int kThreads = 4;
  const int kRounds = 24;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t i = static_cast<std::size_t>(t + round) % circuits.size();
        if (round % 2 == 0) {
          const FlowResult result =
              run_flow_cached(FlowKind::kTurboSyn, circuits[i], opt, &cache);
          ASSERT_EQ(summary_fingerprint(result), baseline_summary[i]);
        } else {
          const FlowResult result =
              run_flow_cached(FlowKind::kTurboSyn, circuits[i], artifacts, &cache);
          ASSERT_EQ(fingerprint(result), baseline[i]);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GE(cache.hot_hits(), 1);
  EXPECT_LE(cache.hot_entries(), 2);
  EXPECT_GE(cache.hot_evictions(), 1);  // three circuits through room for two
}

// ---------------------------------------------------------------------------
// Batch manifest parsing and the batch runner

TEST(BatchManifest, ParsesFlowsDefaultsAndComments) {
  std::istringstream manifest(
      "# comment line\n"
      "\n"
      "a/counter.blif\n"
      "b/fsm.blif turbomap\n"
      "c/deep.blif turbomap_period 6\n");
  const std::vector<BatchJob> jobs = read_batch_manifest(manifest, "m.txt");
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].name, "counter");
  EXPECT_EQ(jobs[0].flow, FlowKind::kTurboSyn);
  EXPECT_EQ(jobs[0].k, 5);
  EXPECT_EQ(jobs[1].flow, FlowKind::kTurboMap);
  EXPECT_EQ(jobs[2].flow, FlowKind::kTurboMapPeriod);
  EXPECT_EQ(jobs[2].k, 6);
}

TEST(BatchManifest, RejectsMalformedLinesWithContext) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return read_batch_manifest(in, "m.txt");
  };
  EXPECT_THROW(parse("x.blif nosuchflow\n"), Error);
  EXPECT_THROW(parse("x.blif turbosyn banana\n"), Error);
  EXPECT_THROW(parse("x.blif turbosyn 1\n"), Error);  // K < 2
  EXPECT_THROW(parse("x.blif turbosyn 5 extra\n"), Error);
  try {
    (void)parse("x.blif nosuchflow\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("m.txt:1"), std::string::npos) << e.what();
  }
}

TEST(BatchRunner, RunsAManifestThroughTheSharedCache) {
  const fs::path dir = test_dir("batch");
  const std::vector<std::pair<std::string, std::string>> samples = {
      {"counter3", counter3_blif()},
      {"pattern_fsm", pattern_fsm_blif()},
      {"gray_counter", gray_counter_blif()},
  };
  std::vector<BatchJob> jobs;
  for (const auto& [name, blif] : samples) {
    const fs::path path = dir / (name + ".blif");
    std::ofstream(path) << blif;
    BatchJob job;
    job.name = name;
    job.path = path.string();
    job.k = 4;
    jobs.push_back(job);
  }
  // One failing job: parse errors are reported per record, not thrown.
  BatchJob missing;
  missing.name = "missing";
  missing.path = (dir / "missing.blif").string();
  jobs.push_back(missing);

  FlowCache cache((dir / "cache").string());
  BatchOptions options;
  options.cache = &cache;
  std::ostringstream jsonl;
  const BatchSummary cold = run_batch(jobs, options, &jsonl);
  EXPECT_EQ(cold.completed, 3);
  EXPECT_EQ(cold.failed, 1);
  EXPECT_EQ(cold.cache_hits, 0);

  const BatchSummary warm = run_batch(jobs, options);
  EXPECT_EQ(warm.completed, 3);
  EXPECT_EQ(warm.cache_hits, 3);
  for (std::size_t i = 0; i + 1 < warm.records.size(); ++i) {
    EXPECT_EQ(warm.records[i].phi, cold.records[i].phi);
    EXPECT_EQ(warm.records[i].luts, cold.records[i].luts);
    EXPECT_EQ(warm.records[i].period, cold.records[i].period);
  }

  // One JSONL object per job, streamed in completion order.
  int lines = 0;
  std::string line;
  std::istringstream stream(jsonl.str());
  while (std::getline(stream, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, static_cast<int>(jobs.size()));
  const std::string error_record = batch_record_json(warm.records.back());
  EXPECT_NE(error_record.find("\"ok\":false"), std::string::npos);
}

/// `n` copies of one small counter circuit as batch jobs.
std::vector<BatchJob> counter_jobs(const std::string& dir_name, std::size_t n) {
  const fs::path blif_path = test_dir(dir_name) / "counter.blif";
  std::ofstream(blif_path) << counter3_blif();
  std::vector<BatchJob> jobs(n);
  for (auto& job : jobs) {
    job.name = "counter";
    job.path = blif_path.string();
    job.k = 4;
  }
  return jobs;
}

TEST(BatchRunner, CancelSkipsQueuedJobs) {
  const std::vector<BatchJob> jobs = counter_jobs("cancel", 8);
  CancelToken cancel;
  cancel.cancel();  // already cancelled: every job is skipped
  BatchOptions options;
  options.cancel = &cancel;
  const BatchSummary summary = run_batch(jobs, options);
  EXPECT_EQ(summary.completed + summary.failed, 0);
  EXPECT_EQ(summary.skipped, static_cast<int>(jobs.size()));
  for (const BatchRecord& record : summary.records) {
    EXPECT_TRUE(record.skipped);
    EXPECT_EQ(record.status, Status::kCancelled);
  }
}

/// A string stream whose first write cancels `token`.
class CancellingBuf : public std::stringbuf {
 public:
  explicit CancellingBuf(CancelToken& token) : token_(token) {}

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    token_.cancel();
    return std::stringbuf::xsputn(s, n);
  }

 private:
  CancelToken& token_;
};

TEST(BatchRunner, CancelMidBatchSkipsEveryJobClaimedAfterIt) {
  const std::vector<BatchJob> jobs = counter_jobs("midcancel", 8);
  CancelToken cancel;
  CancellingBuf buf(cancel);
  std::ostream jsonl(&buf);
  BatchOptions options;
  options.cancel = &cancel;
  options.num_workers = 1;  // two lanes
  const BatchSummary summary = run_batch(jobs, options, &jsonl);
  // The first record written cancels the batch; by then each lane has
  // started at most one job, and every job claimed afterwards is skipped.
  const int ran = static_cast<int>(jobs.size()) - summary.skipped;
  EXPECT_GE(ran, 1);
  EXPECT_LE(ran, 2);
  EXPECT_EQ(summary.completed + summary.failed + summary.skipped,
            static_cast<int>(jobs.size()));
  for (const BatchRecord& record : summary.records) {
    if (record.skipped) {
      EXPECT_EQ(record.status, Status::kCancelled);
    }
  }
}

TEST(BatchRunner, NumWorkersBoundsTheLanes) {
  const std::vector<BatchJob> jobs = counter_jobs("lanes", 6);
  BatchOptions options;
  options.num_workers = 1;  // two lanes share six 40 ms jobs: >= 3 rounds
  failpoint::Scoped scoped("batch.job=delay:40");
  const BatchSummary summary = run_batch(jobs, options);
  EXPECT_EQ(summary.completed, 6);
  EXPECT_EQ(failpoint::triggers("batch.job"), 6);
  EXPECT_GE(summary.seconds, 0.12);
}

TEST(BatchRunner, EmptyBatchReturnsAnEmptySummary) {
  std::ostringstream jsonl;
  const BatchSummary summary = run_batch({}, BatchOptions{}, &jsonl);
  EXPECT_TRUE(summary.records.empty());
  EXPECT_EQ(summary.completed + summary.failed + summary.skipped, 0);
  EXPECT_TRUE(summary.poisoned.empty());
  EXPECT_TRUE(jsonl.str().empty());
}

}  // namespace
}  // namespace turbosyn
