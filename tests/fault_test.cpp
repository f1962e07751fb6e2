// Fault-injection and recovery tests (DESIGN.md §13): the failpoint
// registry's spec grammar and counters, crash/corruption hardening of the
// flow-artifact cache (checksum trailer, recover() GC, retry-with-backoff),
// driver containment of stage failures, SIGTERM cooperative cancellation,
// and supervised batch execution (retry, quarantine, JSONL sink absorption).
//
// The fork()-based crash drills live in their own suite
// (FlowCacheCrashRecovery) and run before any test that spins up the global
// thread pool; they simulate kill -9 between two instructions via the
// failpoint crash action (std::_Exit, no destructors, no flushes).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "base/check.hpp"
#include "base/failpoint.hpp"
#include "base/run_budget.hpp"
#include "cache/cached_flow.hpp"
#include "cache/flow_cache.hpp"
#include "core/flows.hpp"
#include "decomp/gate_decomp.hpp"
#include "netlist/blif.hpp"
#include "service/batch_runner.hpp"
#include "verify/audit.hpp"
#include "workloads/samples.hpp"

namespace turbosyn {
namespace {

namespace fs = std::filesystem;

fs::path test_dir(const std::string& leaf) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("ts_fault_test_" + leaf);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

FlowOptions small_options() {
  FlowOptions opt;
  opt.k = 4;
  return opt;
}

Circuit bounded_sample(const std::string& blif, int k = 4) {
  Circuit c = read_blif_string(blif);
  if (!c.is_k_bounded(k)) c = gate_decompose(c, k);
  return c;
}

std::string fingerprint(const FlowResult& r) {
  return std::to_string(r.phi) + "|" + std::to_string(r.period) + "|" +
         std::to_string(r.pipeline_stages) + "|" + write_blif_string(r.mapped, "fp");
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

std::string hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return std::string(buf);
}

/// A synthetic but fully certified (key, entry) pair: the winning probe is
/// feasible, ok, and hashes the winning labels — everything parse validation
/// demands — without the cost of running a real flow.
struct Crafted {
  CacheKey key;
  CacheEntry entry;
};

Crafted crafted_entry() {
  Crafted out;
  out.key = make_cache_key(read_blif_string(counter3_blif()), small_options(),
                           FlowKind::kTurboSyn);
  CacheEntry& e = out.entry;
  e.phi = 2;
  e.mode = LabelMode::kPlain;
  e.max_po_label = 1;
  e.winning_labels = {0, 0, 1, 2, 1, 2};
  CachedProbe win;
  win.phi = 2;
  win.mode = LabelMode::kPlain;
  win.status = Status::kOk;
  win.feasible = true;
  win.label_hash = hash_labels(std::span<const int>(e.winning_labels));
  win.max_po_label = 1;
  e.probes.push_back(win);
  e.luts = 3;
  e.ffs = 2;
  e.mdr_num = 3;
  e.mdr_den = 2;
  e.period = 4;
  e.pipeline_stages = 1;
  return out;
}

/// Number of "*.tmp.*" files under `dir`.
int count_tmp_files(const fs::path& dir) {
  int n = 0;
  for (const auto& de : fs::directory_iterator(dir)) {
    if (de.path().filename().string().find(".tmp.") != std::string::npos) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Failpoint registry

TEST(FailpointRegistry, DisarmedByDefaultAndZeroLookup) {
  failpoint::clear();
  EXPECT_FALSE(failpoint::enabled());
  EXPECT_EQ(failpoint::poll("any.site").action, failpoint::Action::kOff);
  EXPECT_EQ(failpoint::hits("any.site"), 0);  // poll never reached the registry
}

TEST(FailpointRegistry, CountLimitFiresThenGoesQuiet) {
  failpoint::Scoped scoped("siteA=error*2");
  EXPECT_TRUE(failpoint::enabled());
  EXPECT_EQ(failpoint::check("siteA").action, failpoint::Action::kError);
  EXPECT_EQ(failpoint::check("siteA").action, failpoint::Action::kError);
  EXPECT_EQ(failpoint::check("siteA").action, failpoint::Action::kOff);
  EXPECT_EQ(failpoint::hits("siteA"), 3);
  EXPECT_EQ(failpoint::triggers("siteA"), 2);
}

TEST(FailpointRegistry, FromDelaysTheFirstFiring) {
  failpoint::Scoped scoped("siteB=error@2*1");
  EXPECT_EQ(failpoint::check("siteB").action, failpoint::Action::kOff);
  EXPECT_EQ(failpoint::check("siteB").action, failpoint::Action::kError);
  EXPECT_EQ(failpoint::check("siteB").action, failpoint::Action::kOff);
  EXPECT_EQ(failpoint::triggers("siteB"), 1);
}

TEST(FailpointRegistry, PartialAndDelayCarryArgs) {
  failpoint::Scoped scoped("p=partial,q=partial:40,d=delay:0");
  EXPECT_EQ(failpoint::check("p").action, failpoint::Action::kPartialWrite);
  EXPECT_EQ(failpoint::check("p").arg, 16);  // documented default
  EXPECT_EQ(failpoint::check("q").arg, 40);
  EXPECT_EQ(failpoint::check("d").action, failpoint::Action::kDelay);
}

TEST(FailpointRegistry, ThrowPolicyThrowsError) {
  failpoint::Scoped scoped("t=throw");
  EXPECT_THROW(failpoint::check("t"), Error);
  EXPECT_EQ(failpoint::triggers("t"), 1);
}

TEST(FailpointRegistry, MalformedSpecArmsNothing) {
  failpoint::clear();
  std::string error;
  EXPECT_FALSE(failpoint::configure("x=bogus", &error));
  EXPECT_NE(error.find("bogus"), std::string::npos);
  EXPECT_FALSE(failpoint::configure("noequals", &error));
  EXPECT_FALSE(failpoint::configure("x=error*0", &error));  // count 0 is invalid
  EXPECT_FALSE(failpoint::configure("x=error@0", &error));  // from is 1-based
  // A malformed spec mixed with a valid clause arms neither.
  EXPECT_FALSE(failpoint::configure("ok=error,x=bogus", &error));
  EXPECT_FALSE(failpoint::enabled());
  EXPECT_EQ(failpoint::poll("ok").action, failpoint::Action::kOff);
}

TEST(FailpointRegistry, OffDisarmsOneSiteLaterClauseWins) {
  failpoint::Scoped scoped("a=error,b=error");
  std::string error;
  ASSERT_TRUE(failpoint::configure("a=off", &error));
  EXPECT_TRUE(failpoint::enabled());  // b is still armed
  EXPECT_EQ(failpoint::check("a").action, failpoint::Action::kOff);
  EXPECT_EQ(failpoint::check("b").action, failpoint::Action::kError);
}

TEST(FailpointRegistry, ClearResetsCountersAndDisarms) {
  std::string error;
  ASSERT_TRUE(failpoint::configure("c=error", &error));
  failpoint::check("c");
  EXPECT_EQ(failpoint::triggers("c"), 1);
  failpoint::clear();
  EXPECT_FALSE(failpoint::enabled());
  EXPECT_EQ(failpoint::hits("c"), 0);
  EXPECT_EQ(failpoint::triggers("c"), 0);
  EXPECT_TRUE(failpoint::trigger_counts().empty());
}

TEST(FailpointRegistry, TriggerCountsListFiredSites) {
  failpoint::Scoped scoped("x=error,y=error");
  failpoint::check("x");
  failpoint::check("x");
  failpoint::check("y");
  const auto counts = failpoint::trigger_counts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].first, "x");
  EXPECT_EQ(counts[0].second, 2);
  EXPECT_EQ(counts[1].first, "y");
  EXPECT_EQ(counts[1].second, 1);
}

TEST(FailpointRegistry, EnvVariableArmsAndRejectsMalformed) {
  failpoint::clear();
  ::setenv("TS_FAILPOINTS", "envsite=error*1", 1);
  EXPECT_TRUE(failpoint::configure_from_env());
  EXPECT_EQ(failpoint::check("envsite").action, failpoint::Action::kError);
  failpoint::clear();
  ::setenv("TS_FAILPOINTS", "envsite=nonsense", 1);
  EXPECT_FALSE(failpoint::configure_from_env());
  EXPECT_FALSE(failpoint::enabled());
  ::unsetenv("TS_FAILPOINTS");
  EXPECT_TRUE(failpoint::configure_from_env());  // unset is a no-op
  failpoint::clear();
}

TEST(FailpointRegistry, KnownSitesCatalogCoversTheInstrumentedPaths) {
  const std::vector<std::string> sites = failpoint::known_sites();
  for (const char* expected : {"blif.read", "cache.entry.read", "cache.entry.write",
                               "cache.entry.rename", "driver.stage", "batch.job",
                               "batch.jsonl.write"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), expected), sites.end())
        << "catalog is missing site " << expected;
  }
}

// ---------------------------------------------------------------------------
// Cache corruption hardening (crafted entries; no flows involved)

TEST(FlowCacheFaults, RoundTripSurvivesTheChecksumTrailer) {
  const fs::path dir = test_dir("roundtrip");
  const Crafted crafted = crafted_entry();
  FlowCache cache(dir.string());
  ASSERT_TRUE(cache.store(crafted.key, crafted.entry));
  const auto hit = cache.lookup(crafted.key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->phi, crafted.entry.phi);
  EXPECT_EQ(hit->winning_labels, crafted.entry.winning_labels);
  EXPECT_EQ(hit->luts, crafted.entry.luts);
  EXPECT_EQ(hit->ffs, crafted.entry.ffs);
  EXPECT_EQ(hit->mdr_num, crafted.entry.mdr_num);
  EXPECT_EQ(hit->mdr_den, crafted.entry.mdr_den);
  EXPECT_EQ(hit->period, crafted.entry.period);
  EXPECT_EQ(hit->pipeline_stages, crafted.entry.pipeline_stages);
  EXPECT_EQ(cache.recovered_entries(), 0);
}

TEST(FlowCacheFaults, TruncatedEntryIsACountedCleanMiss) {
  const fs::path dir = test_dir("truncated");
  const Crafted crafted = crafted_entry();
  FlowCache cache(dir.string());
  ASSERT_TRUE(cache.store(crafted.key, crafted.entry));
  const fs::path path = cache.entry_path(crafted.key);
  const std::string content = read_file(path);
  write_file(path, content.substr(0, content.size() / 2));

  EXPECT_FALSE(cache.lookup(crafted.key).has_value());
  EXPECT_EQ(cache.recovered_entries(), 1);
  EXPECT_EQ(cache.misses(), 1);
  // The slot self-heals: a fresh store overwrites the torn file.
  ASSERT_TRUE(cache.store(crafted.key, crafted.entry));
  EXPECT_TRUE(cache.lookup(crafted.key).has_value());
}

TEST(FlowCacheFaults, ChecksumCatchesMidFileCorruptionThatStillTokenizes) {
  const fs::path dir = test_dir("midfile");
  const Crafted crafted = crafted_entry();
  FlowCache cache(dir.string());
  ASSERT_TRUE(cache.store(crafted.key, crafted.entry));
  const fs::path path = cache.entry_path(crafted.key);
  std::string content = read_file(path);
  // Flip one digit of the stored LUT count, a summary field a hit returns
  // as-is: same length, still tokenizes, and no certification field (labels,
  // probe hashes) changes — only the checksum trailer can catch this.
  const std::size_t at = content.find("\nresult 3 ");
  ASSERT_NE(at, std::string::npos);
  content[at + std::string("\nresult ").size()] = '9';
  write_file(path, content);

  EXPECT_FALSE(cache.lookup(crafted.key).has_value());
  EXPECT_EQ(cache.recovered_entries(), 1);
}

TEST(FlowCacheFaults, MissingTrailerIsASchemaViolation) {
  const fs::path dir = test_dir("notrailer");
  const Crafted crafted = crafted_entry();
  FlowCache cache(dir.string());
  ASSERT_TRUE(cache.store(crafted.key, crafted.entry));
  const fs::path path = cache.entry_path(crafted.key);
  std::string content = read_file(path);
  const std::size_t sum = content.rfind("sum ");
  ASSERT_NE(sum, std::string::npos);
  write_file(path, content.substr(0, sum));
  EXPECT_FALSE(cache.lookup(crafted.key).has_value());
  EXPECT_EQ(cache.recovered_entries(), 1);
}

TEST(FlowCacheFaults, InjectedPartialWriteIsNeverServed) {
  const fs::path dir = test_dir("partial");
  const Crafted crafted = crafted_entry();
  FlowCache cache(dir.string());
  failpoint::Scoped scoped("cache.entry.write=partial:80*1");
  // The torn write still renames (store reports success — exactly what an
  // fsync-less crash looks like)...
  ASSERT_TRUE(cache.store(crafted.key, crafted.entry));
  EXPECT_EQ(failpoint::triggers("cache.entry.write"), 1);
  // ...but the checksum trailer is gone with the tail, so the entry demotes
  // to a clean miss instead of replaying half a result.
  EXPECT_FALSE(cache.lookup(crafted.key).has_value());
  EXPECT_EQ(cache.recovered_entries(), 1);
}

TEST(FlowCacheFaults, TransientWriteFaultIsRetriedWithBackoff) {
  const fs::path dir = test_dir("retrywrite");
  const Crafted crafted = crafted_entry();
  FlowCache cache(dir.string());
  failpoint::Scoped scoped("cache.entry.write=error*2");
  EXPECT_TRUE(cache.store(crafted.key, crafted.entry));  // 3rd attempt lands
  EXPECT_EQ(cache.retries(), 2);
  EXPECT_EQ(failpoint::triggers("cache.entry.write"), 2);
  EXPECT_TRUE(cache.lookup(crafted.key).has_value());
  EXPECT_EQ(cache.stores(), 1);
}

TEST(FlowCacheFaults, PersistentWriteFaultExhaustsAttempts) {
  const fs::path dir = test_dir("exhaust");
  const Crafted crafted = crafted_entry();
  FlowCache cache(dir.string());
  failpoint::Scoped scoped("cache.entry.write=error");
  EXPECT_FALSE(cache.store(crafted.key, crafted.entry));
  EXPECT_EQ(cache.retries(), 2);  // 3 attempts = 2 retries
  EXPECT_EQ(cache.rejects(), 1);
  EXPECT_EQ(cache.stores(), 0);
  EXPECT_FALSE(cache.lookup(crafted.key).has_value());
}

TEST(FlowCacheFaults, RenameFaultIsRetriedAndLeavesNoStrayTmp) {
  const fs::path dir = test_dir("rename");
  const Crafted crafted = crafted_entry();
  FlowCache cache(dir.string());
  failpoint::Scoped scoped("cache.entry.rename=error*1");
  EXPECT_TRUE(cache.store(crafted.key, crafted.entry));
  EXPECT_EQ(cache.retries(), 1);
  EXPECT_TRUE(cache.lookup(crafted.key).has_value());
  EXPECT_EQ(count_tmp_files(dir), 0);
}

TEST(FlowCacheFaults, ReadFaultDegradesToMissWithoutRetrying) {
  const fs::path dir = test_dir("readfault");
  const Crafted crafted = crafted_entry();
  FlowCache cache(dir.string());
  ASSERT_TRUE(cache.store(crafted.key, crafted.entry));
  failpoint::Scoped scoped("cache.entry.read=error*1");
  EXPECT_FALSE(cache.lookup(crafted.key).has_value());  // fault round: miss
  EXPECT_TRUE(cache.lookup(crafted.key).has_value());   // entry was intact all along
  EXPECT_EQ(cache.retries(), 0);  // reads never burn backoff sleeps
  EXPECT_EQ(cache.recovered_entries(), 0);
}

TEST(FlowCacheFaults, ThrowPolicyAtReadSiteIsAbsorbed) {
  const fs::path dir = test_dir("readthrow");
  const Crafted crafted = crafted_entry();
  FlowCache cache(dir.string());
  ASSERT_TRUE(cache.store(crafted.key, crafted.entry));
  failpoint::Scoped scoped("cache.entry.read=throw*1");
  EXPECT_NO_THROW({ EXPECT_FALSE(cache.lookup(crafted.key).has_value()); });
}

TEST(FlowCacheFaults, HashCollisionIsACleanMissEvenUnderReadFault) {
  const fs::path dir = test_dir("collision");
  const Crafted crafted = crafted_entry();
  FlowCache cache(dir.string());
  ASSERT_TRUE(cache.store(crafted.key, crafted.entry));
  // Forged key: same 64-bit hash (same file on disk), different canonical
  // text — a simulated hash collision. The byte-for-byte key comparison must
  // reject it.
  CacheKey forged = crafted.key;
  forged.text += "#";
  EXPECT_FALSE(cache.lookup(forged).has_value());
  EXPECT_EQ(cache.hits(), 0);
  // Same forgery with a read fault landing mid-sequence: still never a hit.
  failpoint::Scoped scoped("cache.entry.read=error@2*1");
  EXPECT_FALSE(cache.lookup(forged).has_value());  // hit 1: collision check
  EXPECT_FALSE(cache.lookup(forged).has_value());  // hit 2: injected read fault
  EXPECT_FALSE(cache.lookup(forged).has_value());  // hit 3: collision check again
  EXPECT_EQ(cache.hits(), 0);
  // The honest key still works.
  EXPECT_TRUE(cache.lookup(crafted.key).has_value());
}

TEST(FlowCacheFaults, RecoverGCsStrayTmpAndTornEntries) {
  const fs::path dir = test_dir("recover");
  const Crafted crafted = crafted_entry();
  FlowCache cache(dir.string());
  ASSERT_TRUE(cache.store(crafted.key, crafted.entry));  // the healthy survivor

  write_file(dir / (hex16(0) + ".tsce.tmp.123.4"), "half-written entry");
  write_file(dir / (hex16(0xffffffffffffffffull) + ".tsce"), "turbosyn-cache 3 torn");

  const FlowCache::RecoveryStats stats = cache.recover();
  EXPECT_EQ(stats.stray_tmp, 1);
  EXPECT_EQ(stats.torn_entries, 1);
  EXPECT_EQ(stats.total(), 2);
  EXPECT_EQ(cache.recovered_tmp(), 1);
  EXPECT_EQ(cache.recovered_entries(), 1);

  // The healthy entry survived, and a second pass is clean.
  EXPECT_TRUE(cache.lookup(crafted.key).has_value());
  EXPECT_EQ(cache.recover().total(), 0);
}

TEST(FlowCacheFaults, RecoverRemovesAnEntryFiledUnderTheWrongName) {
  const fs::path dir = test_dir("misfiled");
  const Crafted crafted = crafted_entry();
  FlowCache cache(dir.string());
  ASSERT_TRUE(cache.store(crafted.key, crafted.entry));
  // A stale rename: a byte-identical copy of a valid entry under a name that
  // does not match its stored hash.
  fs::copy_file(cache.entry_path(crafted.key), dir / (hex16(7) + ".tsce"));
  const FlowCache::RecoveryStats stats = cache.recover();
  EXPECT_EQ(stats.torn_entries, 1);
  EXPECT_FALSE(fs::exists(dir / (hex16(7) + ".tsce")));
  EXPECT_TRUE(cache.lookup(crafted.key).has_value());
}

TEST(FlowCacheFaults, RecoverOnAMissingDirectoryIsAnEmptyPass) {
  FlowCache cache((fs::path(::testing::TempDir()) / "ts_fault_never_created").string());
  EXPECT_EQ(cache.recover().total(), 0);
}

// ---------------------------------------------------------------------------
// Crash drills: kill -9 between two instructions, via fork()

TEST(FlowCacheCrashRecovery, CrashBetweenWriteAndRenameIsGCdAndNeverServed) {
  const fs::path dir = test_dir("crash");
  const Crafted crafted = crafted_entry();

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: die (no destructors, no flushes) after writing the tmp file but
    // before the rename — the classic stray-tmp crash window.
    failpoint::configure("cache.entry.rename=crash:137");
    FlowCache child_cache(dir.string());
    child_cache.store(crafted.key, crafted.entry);
    std::_Exit(9);  // unreachable unless the failpoint failed to fire
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 137) << "child did not crash at the rename failpoint";

  // The crash left a stray tmp and no published entry.
  EXPECT_EQ(count_tmp_files(dir), 1);
  FlowCache cache(dir.string());
  EXPECT_FALSE(cache.lookup(crafted.key).has_value());  // clean miss, no crash

  const FlowCache::RecoveryStats stats = cache.recover();
  EXPECT_EQ(stats.stray_tmp, 1);
  EXPECT_EQ(count_tmp_files(dir), 0);

  // Post-recovery the slot works normally again.
  ASSERT_TRUE(cache.store(crafted.key, crafted.entry));
  EXPECT_TRUE(cache.lookup(crafted.key).has_value());
}

TEST(FlowCacheCrashRecovery, CrashOnSecondStoreKeepsTheFirstEntryServable) {
  const fs::path dir = test_dir("crash2");
  const Crafted crafted = crafted_entry();
  FlowCache cache(dir.string());
  ASSERT_TRUE(cache.store(crafted.key, crafted.entry));

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    failpoint::configure("cache.entry.rename=crash:137");
    FlowCache child_cache(dir.string());
    child_cache.store(crafted.key, crafted.entry);
    std::_Exit(9);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 137);

  // The published entry predates the crash and stays valid; recover() only
  // removes the dead writer's tmp.
  EXPECT_TRUE(cache.lookup(crafted.key).has_value());
  const FlowCache::RecoveryStats stats = cache.recover();
  EXPECT_EQ(stats.stray_tmp, 1);
  EXPECT_EQ(stats.torn_entries, 0);
  EXPECT_TRUE(cache.lookup(crafted.key).has_value());
}

// ---------------------------------------------------------------------------
// Driver containment

TEST(DriverContainment, StageFaultYieldsFailedResultAndSkipsTheRest) {
  const Circuit c = bounded_sample(counter3_blif());
  failpoint::Scoped scoped("driver.stage.pack=error");
  const FlowResult result = run_turbomap(c, small_options());
  EXPECT_EQ(result.status, Status::kFailed);
  EXPECT_EQ(result.failed_stage, "pack");
  EXPECT_NE(result.failure.find("failpoint"), std::string::npos);
  EXPECT_FALSE(result.timed_out);  // containment is not an interrupt
  // pack is the last stage that ran; pipeline-retime never started.
  ASSERT_FALSE(result.stage_metrics.stages.empty());
  EXPECT_EQ(result.stage_metrics.stages.back().name, "pack");
  EXPECT_EQ(result.stage_metrics.stages.back().counter("failed"), 1);
  EXPECT_EQ(result.stage_metrics.find("pipeline-retime"), nullptr);
  // A failed run is never a certificate and never cacheable.
  EXPECT_FALSE(FlowCache::storable(result));
}

TEST(DriverContainment, GenericStageSiteFailsTheFirstBoundary) {
  const Circuit c = bounded_sample(counter3_blif());
  failpoint::Scoped scoped("driver.stage=error*1");
  const FlowResult result = run_turbomap(c, small_options());
  EXPECT_EQ(result.status, Status::kFailed);
  EXPECT_EQ(result.failed_stage, "ub-probe");
}

TEST(DriverContainment, ThrowPolicyIsContainedLikeARealStageDefect) {
  const Circuit c = bounded_sample(counter3_blif());
  failpoint::Scoped scoped("driver.stage.phi-search=throw");
  FlowResult result;
  EXPECT_NO_THROW({ result = run_turbomap(c, small_options()); });
  EXPECT_EQ(result.status, Status::kFailed);
  EXPECT_EQ(result.failed_stage, "phi-search");
}

TEST(DriverContainment, TurboSynPhaseAFailureEndsTheFlow) {
  const Circuit c = bounded_sample(gray_counter_blif());
  failpoint::Scoped scoped("driver.stage.mapgen=error*1");
  const FlowResult result = run_turbosyn(c, small_options());
  EXPECT_EQ(result.status, Status::kFailed);
  EXPECT_EQ(result.failed_stage, "mapgen");
}

TEST(DriverContainment, AuditReportsContainmentAndSkipsProductChecks) {
  const Circuit c = bounded_sample(counter3_blif());
  FlowOptions opt = small_options();
  FlowResult result;
  {
    failpoint::Scoped scoped("driver.stage.mapgen=error");
    result = run_turbomap(c, opt);
  }
  ASSERT_EQ(result.status, Status::kFailed);
  const AuditReport report = audit_flow(c, result, opt);
  ASSERT_FALSE(report.checks.empty());
  EXPECT_EQ(report.checks[0].name, "containment");
  EXPECT_EQ(report.checks[0].status, AuditStatus::kPass);
  EXPECT_TRUE(report.passed());  // coherent containment, everything else skipped
  for (std::size_t i = 1; i < report.checks.size(); ++i) {
    EXPECT_EQ(report.checks[i].status, AuditStatus::kSkipped) << report.checks[i].name;
  }
}

TEST(DriverContainment, AuditFlagsAnIncoherentContainmentRecord) {
  const Circuit c = bounded_sample(counter3_blif());
  FlowOptions opt = small_options();
  FlowResult result = run_turbomap(c, opt);
  result.failed_stage = "pack";  // failing stage named on a non-failed result
  const AuditReport report = audit_flow(c, result, opt);
  ASSERT_FALSE(report.checks.empty());
  EXPECT_EQ(report.checks[0].name, "containment");
  EXPECT_EQ(report.checks[0].status, AuditStatus::kFail);
}

TEST(DriverContainment, UnknownArmedSiteLeavesTheFlowBitIdentical) {
  const Circuit c = bounded_sample(counter3_blif());
  const FlowResult clean = run_turbomap(c, small_options());
  failpoint::Scoped scoped("no.such.site=error");
  const FlowResult armed = run_turbomap(c, small_options());
  EXPECT_EQ(fingerprint(armed), fingerprint(clean));
  EXPECT_EQ(armed.status, Status::kOk);
}

TEST(DriverContainment, CacheWriteFaultsNeverChangeTheFlowResult) {
  const fs::path dir = test_dir("flowwritefault");
  const Circuit c = bounded_sample(gray_counter_blif());
  FlowOptions opt = small_options();
  const FlowResult uncached = run_turbosyn(c, opt);

  FlowCache cache(dir.string());
  failpoint::Scoped scoped("cache.entry.write=error");
  CacheRunInfo info;
  const FlowResult result = run_flow_cached(FlowKind::kTurboSyn, c, opt, &cache, &info);
  EXPECT_EQ(fingerprint(result), fingerprint(uncached));
  EXPECT_FALSE(info.hit);
  EXPECT_FALSE(info.stored);  // every store attempt was eaten by the fault
  EXPECT_EQ(cache.stores(), 0);
}

// ---------------------------------------------------------------------------
// SIGTERM cooperative cancellation

TEST(SignalCancellation, SigtermCancelsTheGlobalTokenLikeSigint) {
  global_cancel_token().reset();
  install_sigterm_cancellation();
  ASSERT_FALSE(global_cancel_token().cancelled());
  std::raise(SIGTERM);  // the handler runs synchronously on this thread
  EXPECT_TRUE(global_cancel_token().cancelled());
  // The handler resets the disposition so a second SIGTERM terminates a
  // stuck process; re-arm defaults for the rest of the suite.
  global_cancel_token().reset();
  std::signal(SIGTERM, SIG_DFL);
}

// ---------------------------------------------------------------------------
// Supervised batch execution

/// One-job manifest on disk for the batch tests.
BatchJob write_job(const fs::path& dir, const std::string& name, const std::string& blif) {
  const fs::path path = dir / (name + ".blif");
  write_file(path, blif);
  BatchJob job;
  job.name = name;
  job.path = path.string();
  job.flow = FlowKind::kTurboSyn;
  job.k = 4;
  return job;
}

TEST(BatchSupervision, TransientJobFaultIsRetriedToACleanRecord) {
  const fs::path dir = test_dir("batchretry");
  const BatchJob job = write_job(dir, "counter3", counter3_blif());
  BatchOptions options;

  const BatchSummary clean = run_batch({job}, options);
  ASSERT_EQ(clean.records.size(), 1u);
  ASSERT_TRUE(clean.records[0].ok);

  failpoint::Scoped scoped("batch.job=error*1");
  const BatchSummary summary = run_batch({job}, options);
  ASSERT_EQ(summary.records.size(), 1u);
  const BatchRecord& record = summary.records[0];
  EXPECT_TRUE(record.ok);
  EXPECT_EQ(record.status, Status::kOk);
  EXPECT_EQ(record.attempts, 2);
  EXPECT_FALSE(record.quarantined);
  EXPECT_EQ(summary.retries, 1);
  EXPECT_EQ(summary.completed, 1);
  EXPECT_EQ(summary.quarantined, 0);
  // The retried run is bit-identical to the fault-free one.
  EXPECT_EQ(record.phi, clean.records[0].phi);
  EXPECT_EQ(record.luts, clean.records[0].luts);
  EXPECT_EQ(record.period, clean.records[0].period);
}

TEST(BatchSupervision, DeterministicIngestFaultIsQuarantined) {
  const fs::path dir = test_dir("batchquarantine");
  const BatchJob job = write_job(dir, "counter3", counter3_blif());
  BatchOptions options;
  failpoint::Scoped scoped("blif.read=error");
  std::ostringstream jsonl;
  const BatchSummary summary = run_batch({job}, options, &jsonl);
  ASSERT_EQ(summary.records.size(), 1u);
  const BatchRecord& record = summary.records[0];
  EXPECT_FALSE(record.ok);
  EXPECT_EQ(record.attempts, 2);
  EXPECT_TRUE(record.quarantined);
  EXPECT_NE(record.error.find("blif.read"), std::string::npos);
  EXPECT_EQ(summary.failed, 1);
  EXPECT_EQ(summary.quarantined, 1);
  ASSERT_EQ(summary.poisoned.size(), 1u);
  EXPECT_EQ(summary.poisoned[0], "counter3");
  // The quarantine is visible in the streamed record too.
  EXPECT_NE(jsonl.str().find("\"quarantined\":true"), std::string::npos);
  EXPECT_NE(jsonl.str().find("\"attempts\":2"), std::string::npos);
}

TEST(BatchSupervision, ContainedStageFailureBecomesAFailedRecordNotADeadProcess) {
  const fs::path dir = test_dir("batchcontain");
  const BatchJob job = write_job(dir, "gray", gray_counter_blif());
  BatchOptions options;
  failpoint::Scoped scoped("driver.stage=error");
  std::ostringstream jsonl;
  const BatchSummary summary = run_batch({job}, options, &jsonl);
  ASSERT_EQ(summary.records.size(), 1u);
  const BatchRecord& record = summary.records[0];
  EXPECT_TRUE(record.ok);  // the flow ran; it reported a contained failure
  EXPECT_EQ(record.status, Status::kFailed);
  EXPECT_EQ(record.failed_stage, "ub-probe");
  EXPECT_TRUE(record.quarantined);
  EXPECT_EQ(summary.failed, 1);
  EXPECT_NE(jsonl.str().find("\"failed_stage\":\"ub-probe\""), std::string::npos);
  EXPECT_NE(jsonl.str().find("\"status\":\"failed\""), std::string::npos);
}

TEST(BatchSupervision, JsonlSinkFaultIsAbsorbedAndCounted) {
  const fs::path dir = test_dir("batchjsonl");
  const std::vector<BatchJob> jobs = {write_job(dir, "counter3", counter3_blif()),
                                      write_job(dir, "gray", gray_counter_blif())};
  BatchOptions options;
  failpoint::Scoped scoped("batch.jsonl.write=error");
  std::ostringstream jsonl;
  const BatchSummary summary = run_batch(jobs, options, &jsonl);
  EXPECT_EQ(summary.completed, 2);  // the batch itself is unharmed
  EXPECT_EQ(summary.jsonl_write_faults, 2);
  for (const BatchRecord& record : summary.records) EXPECT_TRUE(record.ok);
}

TEST(BatchSupervision, SingleAttemptModeNeverRetries) {
  const fs::path dir = test_dir("batchsingle");
  const BatchJob job = write_job(dir, "counter3", counter3_blif());
  BatchOptions options;
  options.max_attempts = 1;
  failpoint::Scoped scoped("batch.job=error*1");
  const BatchSummary summary = run_batch({job}, options);
  ASSERT_EQ(summary.records.size(), 1u);
  EXPECT_FALSE(summary.records[0].ok);
  EXPECT_EQ(summary.records[0].attempts, 1);
  EXPECT_TRUE(summary.records[0].quarantined);
  EXPECT_EQ(summary.retries, 0);
}

}  // namespace
}  // namespace turbosyn
