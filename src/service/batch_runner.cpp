#include "service/batch_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "base/check.hpp"
#include "base/failpoint.hpp"
#include "base/flow_cli.hpp"
#include "base/json_util.hpp"
#include "base/trace.hpp"
#include "decomp/gate_decomp.hpp"
#include "netlist/blif.hpp"

namespace turbosyn {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ',';
    out += name;
  }
  return out;
}

std::string path_stem(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t start = slash == std::string::npos ? 0 : slash + 1;
  const std::size_t dot = path.find_last_of('.');
  const std::size_t end = (dot == std::string::npos || dot <= start) ? path.size() : dot;
  return path.substr(start, end - start);
}

/// Splits one manifest line into fields. A field is either a bare
/// whitespace-delimited token or a double-quoted string (spaces allowed;
/// \" and \\ escapes). Throws with `context` on an unterminated quote.
std::vector<std::string> split_manifest_fields(const std::string& line,
                                               const std::string& context) {
  std::vector<std::string> fields;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
    if (pos >= line.size()) break;
    std::string field;
    if (line[pos] == '"') {
      ++pos;
      bool closed = false;
      while (pos < line.size()) {
        const char ch = line[pos++];
        if (ch == '"') {
          closed = true;
          break;
        }
        if (ch == '\\' && pos < line.size() &&
            (line[pos] == '"' || line[pos] == '\\')) {
          field += line[pos++];
        } else {
          field += ch;
        }
      }
      TS_CHECK(closed, context << "unterminated quote in field " << fields.size() + 1);
    } else {
      while (pos < line.size() && line[pos] != ' ' && line[pos] != '\t') {
        field += line[pos++];
      }
    }
    fields.push_back(std::move(field));
  }
  return fields;
}

/// Helper threads run_batch starts beside the calling thread: one per job
/// after the first, at most hardware_concurrency - 1 (but at least one, so
/// a single-core host runs the same two-lane code), and at most
/// `num_workers` when that is positive.
std::size_t helper_lanes(std::size_t jobs, int num_workers) {
  if (jobs <= 1) return 0;
  std::size_t helpers = static_cast<std::size_t>(
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1));
  if (num_workers > 0) helpers = std::min(helpers, static_cast<std::size_t>(num_workers));
  return std::min(helpers, jobs - 1);
}

/// One circuit attempt: parse, K-bound, run the (cache-aware) flow. Every
/// fault — a parse error, a stage failure the driver contained, an injected
/// "batch.job" fault — lands in the record; this function never throws and
/// never kills the process.
BatchRecord run_job(const BatchJob& job, const BatchOptions& options) {
  BatchRecord record;
  record.name = job.name;
  record.path = job.path;
  record.flow = job.flow;
  record.k = job.k;
  const auto start = Clock::now();
  try {
    if (failpoint::enabled() &&
        failpoint::check("batch.job").action == failpoint::Action::kError) {
      throw Error("failpoint batch.job");
    }
    Circuit input = job.blif.empty() ? read_blif_file(job.path)
                                     : read_blif_string(job.blif, job.name);
    if (!input.is_k_bounded(job.k)) input = gate_decompose(input, job.k);

    FlowOptions flow_options = options.flow;
    // The manifest's per-job K governs the whole run — decomposition above
    // AND the mapper — not just the input bound (the fault fuzzer caught a
    // K=5 flow running on a K=4 job).
    flow_options.k = job.k;
    // Fresh per-circuit budget slice sharing the batch's cancel token.
    flow_options.budget = RunBudget();
    if (options.per_circuit_deadline_ms > 0) {
      flow_options.budget.set_deadline_after_ms(options.per_circuit_deadline_ms);
    }
    if (options.cancel != nullptr) flow_options.budget.set_cancel_token(options.cancel);

    CacheRunInfo info;
    FlowResult result;
    if (!job.portfolio.empty()) {
      std::vector<const EngineSpec*> engines;
      const std::string invalid = parse_portfolio(join_names(job.portfolio), engines);
      if (!invalid.empty()) throw Error(invalid);
      result = run_portfolio_cached(engines, input, flow_options, options.cache, &info);
    } else {
      result = run_flow_cached(job.flow, input, flow_options, options.cache, &info);
    }
    record.ok = true;
    record.cache_hit = info.hit;
    record.engine = result.engine;
    record.phi = result.phi;
    record.luts = result.luts;
    record.ffs = result.ffs;
    record.period = result.period;
    record.pipeline_stages = result.pipeline_stages;
    record.status = result.status;
    record.probes = static_cast<int>(result.probes.size());
    for (const ProbeRecord& probe : result.probes) {
      if (probe.imported) ++record.imported_probes;
    }
    record.stage_metrics = result.stage_metrics;
    if (result.status == Status::kFailed) {
      record.failed_stage = result.failed_stage;
      record.error = result.failure;
    }
  } catch (const std::exception& e) {
    record.ok = false;
    record.error = e.what();
  }
  record.seconds = seconds_since(start);
  return record;
}

/// A record that should be retried: the attempt faulted (parse/flow
/// exception, contained stage failure). Interrupts are excluded — a
/// deadline or cancel is the budget working as designed, and re-running
/// would just burn the same budget again.
bool attempt_failed(const BatchRecord& record) {
  return (!record.ok || record.status == Status::kFailed) && !is_interrupt(record.status);
}

/// Capped exponential pause before attempt `next_attempt` (2-based), sliced
/// so a batch cancel cuts the sleep short.
void retry_backoff(const BatchOptions& options, int next_attempt) {
  const std::int64_t base = std::max<std::int64_t>(0, options.retry_backoff_ms);
  const int exponent = std::min(next_attempt - 2, 10);
  const std::int64_t pause =
      std::min<std::int64_t>(base << exponent, 1000);
  const auto until = Clock::now() + std::chrono::milliseconds(pause);
  while (Clock::now() < until) {
    if (options.cancel != nullptr && options.cancel->cancelled()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

BatchRecord run_supervised_job(const BatchJob& job, const BatchOptions& options,
                               int* retries_out) {
  const int max_attempts = std::max(1, options.max_attempts);
  BatchRecord record;
  double total_seconds = 0.0;
  int retries = 0;
  for (int attempt = 1;; ++attempt) {
    record = run_job(job, options);
    total_seconds += record.seconds;
    record.seconds = total_seconds;  // the circuit's cost, not the attempt's
    record.attempts = attempt;
    if (!attempt_failed(record) || attempt >= max_attempts) break;
    if (options.cancel != nullptr && options.cancel->cancelled()) break;
    ++retries;
    retry_backoff(options, attempt + 1);
  }
  // Failing the last allowed attempt (without an interrupt cutting the
  // supervision short) marks the circuit deterministically bad.
  record.quarantined = attempt_failed(record) && record.attempts >= max_attempts;
  if (retries_out != nullptr) *retries_out = retries;
  return record;
}

bool JsonlSink::write(const std::string& line) {
  if (os_ == nullptr) return true;
  const std::lock_guard<std::mutex> lock(mu_);
  bool fault = false;
  try {
    if (failpoint::enabled() &&
        failpoint::check("batch.jsonl.write").action == failpoint::Action::kError) {
      fault = true;
    } else {
      *os_ << line << '\n' << std::flush;
      fault = !os_->good();
    }
  } catch (...) {
    fault = true;
  }
  if (fault) {
    os_->clear();
    faults_.fetch_add(1, std::memory_order_relaxed);
  }
  return !fault;
}

std::vector<BatchJob> read_batch_manifest(std::istream& in, const std::string& source_name) {
  std::vector<BatchJob> jobs;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string context = source_name + ":" + std::to_string(line_no) + ": ";
    const std::vector<std::string> fields = split_manifest_fields(line, context);
    if (fields.empty() || fields[0][0] == '#') continue;
    BatchJob job;
    job.path = fields[0];
    TS_CHECK(!job.path.empty(), context << "empty path in field 1");
    if (fields.size() >= 2) {
      if (fields[1].find(',') != std::string::npos) {
        // A comma-separated engine list races as a portfolio. Resolved and
        // validated here so a typo fails at manifest load, not mid-batch.
        std::vector<const EngineSpec*> engines;
        const std::string invalid = parse_portfolio(fields[1], engines);
        TS_CHECK(invalid.empty(), context << invalid << " in field 2");
        for (const EngineSpec* spec : engines) job.portfolio.push_back(spec->name);
      } else {
        // Name the offending field: an unquoted path with spaces lands its
        // tail here, and "unknown flow 'b.blif'" with no field context sent
        // users hunting through the flow table instead of their path.
        TS_CHECK(flow_kind_from_name(fields[1], job.flow),
                 context << "unknown flow '" << fields[1]
                         << "' in field 2 (expected turbomap|turbosyn|flowsyn_s|"
                            "turbomap_period or a comma-separated engine portfolio; "
                            "a path containing spaces must be double-quoted)");
      }
    }
    if (fields.size() >= 3) {
      TS_CHECK(parse_int_strict(fields[2], 2, 32, job.k),
               context << "bad K '" << fields[2]
                       << "' in field 3 (expected an integer in [2, 32])");
    }
    TS_CHECK(fields.size() <= 3, context << "trailing field '" << fields[3] << "'");
    job.name = path_stem(job.path);
    jobs.push_back(std::move(job));
  }

  // De-duplicate record names: two entries sharing a path stem (a/x.blif,
  // b/x.blif) used to stream indistinguishable JSONL records and an
  // ambiguous poison list — and the daemon's resubmission guard keys off
  // these names. Later duplicates get a ~N suffix in manifest order.
  std::unordered_set<std::string> taken;
  std::unordered_map<std::string, int> suffix;
  for (BatchJob& job : jobs) {
    std::string name = job.name;
    int& n = suffix[job.name];
    while (!taken.insert(name).second) {
      ++n;
      name = job.name + "~" + std::to_string(n + 1);
    }
    job.name = std::move(name);
  }
  return jobs;
}

std::vector<BatchJob> read_batch_manifest_file(const std::string& path) {
  std::ifstream in(path);
  TS_CHECK(in.good(), "cannot open manifest '" << path << "'");
  return read_batch_manifest(in, path);
}

std::string batch_record_json(const BatchRecord& record) {
  std::string out = "{\"name\":";
  json_append_string(out, record.name);
  out += ",\"path\":";
  json_append_string(out, record.path);
  out += ",\"flow\":";
  json_append_string(out, flow_kind_name(record.flow));
  if (!record.engine.empty()) {
    out += ",\"engine\":";
    json_append_string(out, record.engine);
  }
  out += ",\"k\":" + std::to_string(record.k);
  out += ",\"ok\":";
  out += record.ok ? "true" : "false";
  out += ",\"skipped\":";
  out += record.skipped ? "true" : "false";
  out += ",\"cache_hit\":";
  out += record.cache_hit ? "true" : "false";
  if (record.ok) {
    out += ",\"phi\":" + std::to_string(record.phi);
    out += ",\"luts\":" + std::to_string(record.luts);
    out += ",\"ffs\":" + std::to_string(record.ffs);
    out += ",\"period\":" + std::to_string(record.period);
    out += ",\"pipeline_stages\":" + std::to_string(record.pipeline_stages);
  }
  out += ",\"status\":";
  json_append_string(out, status_name(record.status));
  out += ",\"attempts\":" + std::to_string(record.attempts);
  out += ",\"quarantined\":";
  out += record.quarantined ? "true" : "false";
  if (!record.failed_stage.empty()) {
    out += ",\"failed_stage\":";
    json_append_string(out, record.failed_stage);
  }
  out += ",\"seconds\":" + json_double(record.seconds);
  if (!record.error.empty()) {
    out += ",\"error\":";
    json_append_string(out, record.error);
  }
  out += "}";
  return out;
}

BatchSummary run_batch(const std::vector<BatchJob>& jobs, const BatchOptions& options,
                       std::ostream* jsonl) {
  const auto start = Clock::now();
  BatchSummary summary;
  summary.records.resize(jobs.size());
  // Jobs claimed after a cancel keep this initializer; finished jobs
  // overwrite it with their real record.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    summary.records[i].name = jobs[i].name;
    summary.records[i].path = jobs[i].path;
    summary.records[i].flow = jobs[i].flow;
    summary.records[i].k = jobs[i].k;
    summary.records[i].skipped = true;
    summary.records[i].status = Status::kCancelled;
  }

  JsonlSink sink(jsonl);
  std::atomic<int> retries{0};
  std::atomic<std::size_t> next{0};
  // One lane: claims job indices from the shared cursor until it passes the
  // end. Once the batch's cancel token fires, a claimed job keeps its skipped
  // record, so the batch drains without running the rest. Nothing a lane
  // calls throws: run_supervised_job contains every job fault and the sink
  // absorbs its own.
  const auto lane = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      if (options.cancel != nullptr && options.cancel->cancelled()) continue;
      int job_retries = 0;
      BatchRecord record = run_supervised_job(jobs[i], options, &job_retries);
      retries.fetch_add(job_retries, std::memory_order_relaxed);
      // Incremental flush: every record hits the sink (and the OS) the
      // moment its circuit settles, so a later crash loses at most the
      // in-flight line. A sink fault (disk full, injected
      // "batch.jsonl.write" error) is absorbed — the record stays in the
      // summary and the batch keeps going.
      if (sink.attached()) sink.write(batch_record_json(record));
      summary.records[i] = std::move(record);
    }
  };
  {
    std::vector<std::jthread> helpers;  // joined when this scope closes
    for (std::size_t h = helper_lanes(jobs.size(), options.num_workers); h > 0; --h) {
      helpers.emplace_back(lane);
    }
    lane();
  }

  for (const BatchRecord& record : summary.records) {
    if (record.skipped) {
      ++summary.skipped;
    } else if (record.ok && record.status != Status::kFailed) {
      ++summary.completed;
      if (record.cache_hit) ++summary.cache_hits;
    } else {
      ++summary.failed;
    }
    if (record.quarantined) {
      ++summary.quarantined;
      summary.poisoned.push_back(record.name);
    }
  }
  summary.retries = retries.load(std::memory_order_relaxed);
  summary.jsonl_write_faults = sink.faults();
  summary.seconds = seconds_since(start);

  // Observability (DESIGN.md §13): the supervision outcome into the trace
  // stream. Emitted after the lanes join, so the counters are settled.
  if (options.flow.trace != nullptr) {
    TraceSpan span(options.flow.trace, "batch:summary");
    span.counter("completed", summary.completed);
    span.counter("failed", summary.failed);
    span.counter("skipped", summary.skipped);
    span.counter("cache_hits", summary.cache_hits);
    span.counter("retries", summary.retries);
    span.counter("quarantined", summary.quarantined);
    span.counter("jsonl_write_faults", summary.jsonl_write_faults);
  }
  return summary;
}

}  // namespace turbosyn
