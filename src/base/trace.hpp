#pragma once
// Scoped trace spans and counters for the staged flow pipeline.
//
// A TraceSink is an in-memory collector of completed spans. A TraceSpan is an
// RAII handle that measures the wall time of a scope and attaches named
// counters; spans nest through a per-thread stack, so a stage span contains
// the probe spans it ran. Work handed to a thread pool escapes that stack: a
// span opened on a worker thread starts a new root. The sink serializes to a
// stable JSON schema (the mains expose it as --trace-json=<path>):
//
//   {
//     "version": 1,
//     "total_seconds": <sum of root-span wall times>,
//     "counters": { "<name>": <sum over all spans>, ... },
//     "spans": [
//       { "id": 0, "parent": -1, "depth": 0, "name": "flow:turbosyn",
//         "detail": "", "start_s": 0.000012, "seconds": 0.873421,
//         "counters": { "probes": 4 } },
//       ...
//     ]
//   }
//
// `start_s` is relative to the sink's construction; spans are listed in open
// order (ids are assigned when a span opens). A null sink pointer disables
// tracing: spans become inert and cost one branch. An enabled sink costs one
// mutex acquisition per completed span — spans are opened per stage and per
// φ probe, never per node, so contention is irrelevant.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace turbosyn {

/// One completed span, as recorded by the sink.
struct TraceEvent {
  int id = 0;
  int parent = -1;  // id of the enclosing span, -1 for roots
  int depth = 0;
  std::string name;
  std::string detail;
  double start_s = 0.0;   // relative to the sink's construction
  double seconds = 0.0;
  std::vector<std::pair<std::string, std::int64_t>> counters;
};

class TraceSink {
 public:
  TraceSink();

  /// Completed spans in open order (ids ascending).
  std::vector<TraceEvent> events() const;

  /// Counters summed over every span.
  std::map<std::string, std::int64_t> totals() const;

  /// Sum of root-span (depth 0) wall times.
  double total_seconds() const;

  std::string to_json() const;
  void write_json(std::ostream& os) const;
  /// Returns false (and leaves no partial file guarantees) when the path
  /// cannot be opened for writing.
  bool write_json_file(const std::string& path) const;

 private:
  friend class TraceSpan;

  int begin_span();               // claims an id
  void post(TraceEvent event);    // records a completed span

  mutable std::mutex mu_;
  int next_id_ = 0;
  std::vector<TraceEvent> events_;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span. Construct with the sink (nullptr = inert) and a name; the span
/// measures until destruction. Counters accumulate by name within the span.
class TraceSpan {
 public:
  TraceSpan() = default;  // inert
  TraceSpan(TraceSink* sink, std::string name, std::string detail = {});
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan();

  bool enabled() const { return sink_ != nullptr; }
  void set_detail(std::string detail);
  void counter(const std::string& name, std::int64_t value);
  /// Wall time since the span opened (0 for inert spans).
  double seconds_so_far() const;

 private:
  TraceSink* sink_ = nullptr;
  TraceEvent event_;
  std::chrono::steady_clock::time_point start_{};
  TraceSpan* outer_ = nullptr;  // enclosing span on this thread
};

}  // namespace turbosyn
