#pragma once
// Batch multi-circuit scheduler: N netlists through the staged flows,
// concurrently, on lanes run_batch starts and joins itself.
//
// Each circuit-level task runs its flow sequentially; the calling thread and
// its helper threads claim whole circuits from one shared atomic cursor and
// the helpers are joined before run_batch returns. That is the right shape for
// serving many small-to-medium workloads: tasks are independent, the
// flow-artifact cache (src/cache) is shared — so repeated circuits cost one
// read — and results stream out as JSON-lines records the moment each
// circuit finishes.
//
// Budgeting: every circuit gets its own RunBudget slice (an optional
// per-circuit wall-clock deadline) wired to one shared CancelToken, so a
// single Ctrl-C or SIGTERM (or a caller-side cancel) drains the whole batch
// cooperatively: running tasks wind down to their best-so-far mapping,
// queued tasks are skipped and reported as such.
//
// Supervision (DESIGN.md §13): one circuit's fault never takes the batch
// down. A parse error, a stage failure the driver contained (kFailed), or an
// injected "batch.job" fault becomes a failed JSONL record; the circuit is
// retried with capped exponential backoff (BatchOptions::max_attempts) and,
// if it fails deterministically on every attempt, quarantined into the
// summary's poison list. Records stream to the JSONL sink per circuit with
// an explicit flush, so a later crash loses at most the in-flight record;
// sink write failures are absorbed and counted, never fatal.
//
// Manifest format (read_batch_manifest): one circuit per line,
//
//   path/to/circuit.blif [flow] [K]
//
// where `flow` is turbomap | turbosyn | flowsyn_s | turbomap_period
// (default turbosyn) or a comma-separated engine list
// ("turbosyn,turbomap,flowsyn_s" — any registry engines, see
// --engines-list) to race as a portfolio, and K is the LUT input bound
// (default 5). Blank lines
// and `#` comments are ignored. Inputs wider than K are decomposed on load.
// A path containing spaces must be double-quoted ("a b/x.blif", with \" and
// \\ escapes inside); an unquoted space used to shear the path into a bogus
// flow field and a misleading "unknown flow" error. Record names default to
// the path's stem and are de-duplicated in manifest order (a/x.blif and
// b/x.blif stream as "x" and "x~2"), so JSONL records and the summary's
// poison list always identify exactly one manifest entry.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "base/run_budget.hpp"
#include "cache/cached_flow.hpp"
#include "core/flows.hpp"

namespace turbosyn {

struct BatchJob {
  std::string name;  // defaults to the path's stem (de-duplicated per batch)
  std::string path;  // BLIF netlist; a display name when `blif` is inline
  /// Inline netlist text: when non-empty the job parses this instead of
  /// reading `path` (the mapping daemon ships circuits in-band this way).
  std::string blif;
  FlowKind flow = FlowKind::kTurboSyn;
  /// Engine names to race instead of `flow` (empty = standalone flow). The
  /// job runs through run_portfolio_cached: every engine in list order.
  std::vector<std::string> portfolio;
  int k = 5;
};

/// Parses the manifest format above. Throws turbosyn::Error with
/// "file:line:" context on malformed lines (unknown flow, bad K).
std::vector<BatchJob> read_batch_manifest(std::istream& in,
                                          const std::string& source_name = "<manifest>");
std::vector<BatchJob> read_batch_manifest_file(const std::string& path);

struct BatchOptions {
  /// Base options for every flow run; budget is replaced by the
  /// per-circuit slice below.
  FlowOptions flow;
  /// Shared artifact store (nullptr = uncached).
  FlowCache* cache = nullptr;
  /// Circuit-level concurrency: at most this many helper threads run batch
  /// tasks beside the calling thread (0 = no limit). run_batch starts
  /// min(num_workers, max(1, hardware_concurrency - 1), jobs - 1) helpers.
  int num_workers = 0;
  /// Per-circuit wall-clock deadline (0 = none). Each task gets a fresh
  /// RunBudget with this deadline, so one pathological circuit degrades to
  /// its best-so-far mapping instead of starving the batch.
  std::int64_t per_circuit_deadline_ms = 0;
  /// Cooperative cancel for the whole batch (nullptr = none): running tasks
  /// drain, queued tasks are skipped.
  const CancelToken* cancel = nullptr;
  /// Supervision: how many times one circuit may run before it is
  /// quarantined (>= 1). A task whose flow failed in containment (or whose
  /// parse threw) is re-run up to this many attempts; interrupts
  /// (deadline/cancel) are never retried — they are the budget working as
  /// designed, not a fault. A circuit still failing on its last attempt is
  /// quarantined: recorded as failed, listed in BatchSummary::poisoned, and
  /// never crashes the batch.
  int max_attempts = 2;
  /// Base pause before a retry, growing exponentially per extra attempt and
  /// capped at 1s. The sleep polls `cancel`, so Ctrl-C is never held hostage
  /// by a backing-off retry.
  std::int64_t retry_backoff_ms = 10;
};

/// One finished (or skipped/failed) circuit, as streamed to the JSONL sink.
struct BatchRecord {
  std::string name;
  std::string path;
  FlowKind flow = FlowKind::kTurboSyn;
  int k = 5;
  bool ok = false;         // the flow ran and returned a result
  bool skipped = false;    // cancelled before the task started
  bool cache_hit = false;
  /// Winning engine of a portfolio job (empty for standalone flows).
  std::string engine;
  int phi = 0;
  int luts = 0;
  std::int64_t ffs = 0;
  std::int64_t period = 0;
  int pipeline_stages = 0;
  Status status = Status::kOk;
  double seconds = 0.0;    // across every attempt
  std::string error;       // parse/flow failure text (ok == false or kFailed)
  std::string failed_stage;  // stage the driver contained (status == kFailed)
  int attempts = 1;          // runs this circuit took (> 1: it was retried)
  bool quarantined = false;  // failed deterministically on every attempt
  // Ledger/stage aggregates of the final attempt, for service-level STATS
  // rollups (not serialized into the JSONL record).
  int probes = 0;            // probe-ledger records of the run
  int imported_probes = 0;   // of those, imported from the cache
  StageMetrics stage_metrics;
};

/// The record as one JSON object on a single line (no trailing newline).
/// `seconds` is emitted round-trippable (shortest decimal that parses back
/// to the same double) — the default 6-significant-digit ostream rendering
/// silently truncated long runs.
std::string batch_record_json(const BatchRecord& record);

/// One supervised job, exactly as run_batch() executes each manifest entry:
/// parse + flow with containment, capped-backoff retries up to
/// options.max_attempts, quarantine marking on a deterministic failure.
/// Never throws; `retries_out` (optional) receives the extra attempts taken.
/// The mapping daemon runs every admitted request through this.
BatchRecord run_supervised_job(const BatchJob& job, const BatchOptions& options,
                               int* retries_out = nullptr);

/// Hardened JSON-lines sink shared by the batch runner and the mapping
/// daemon: writes are serialized and flushed per record, so a later crash
/// loses at most the in-flight line; a write fault (disk full, an injected
/// "batch.jsonl.write" error, a throwing streambuf) is absorbed and
/// counted, never fatal — the record still exists in memory upstream.
class JsonlSink {
 public:
  /// `os` may be nullptr (detached sink: every write succeeds as a no-op).
  explicit JsonlSink(std::ostream* os) : os_(os) {}

  bool attached() const { return os_ != nullptr; }

  /// Writes `line` + '\n' and flushes. Returns false when the write
  /// faulted (absorbed: the stream's failbit is cleared and the sink stays
  /// usable for the next record).
  bool write(const std::string& line);

  /// Faults absorbed so far.
  int faults() const { return faults_.load(std::memory_order_relaxed); }

 private:
  std::ostream* os_;
  std::mutex mu_;
  std::atomic<int> faults_{0};
};

struct BatchSummary {
  std::vector<BatchRecord> records;  // one per job, in manifest order
  int completed = 0;
  int failed = 0;    // parse/flow errors (every quarantined circuit is here)
  int skipped = 0;   // cancelled before starting
  int cache_hits = 0;
  int retries = 0;       // extra attempts across all circuits
  int quarantined = 0;   // circuits that failed every attempt
  /// Names of the quarantined circuits, in manifest order — the poison list
  /// a wrapping service should exclude from resubmission.
  std::vector<std::string> poisoned;
  /// JSONL sink write failures absorbed (the record still lands in
  /// `records`; the sink's failbit is cleared and the batch continues).
  int jsonl_write_faults = 0;
  double seconds = 0.0;  // batch wall time
};

/// Runs every job on the calling thread plus the helper threads
/// BatchOptions::num_workers allows. `jsonl` (optional) receives one
/// batch_record_json line per circuit, in completion order, as each
/// finishes; the summary keeps manifest order.
BatchSummary run_batch(const std::vector<BatchJob>& jobs, const BatchOptions& options,
                       std::ostream* jsonl = nullptr);

}  // namespace turbosyn
