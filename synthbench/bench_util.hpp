#pragma once
// Measurement helpers of the synthesis benchmark: order statistics with a
// sample-count floor, failure accounting, metric naming, process resource
// readings, the result line, and per-layer self time over a trace.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "base/trace.hpp"

namespace synthbench {

/// Nearest-rank percentile `p` in (0, 1). Refuses (nullopt) unless at least
/// ten samples lie beyond it, i.e. n * (1 - p) >= 10: a p90 needs 100
/// samples, a p50 needs 20.
std::optional<double> percentile(std::vector<double> samples, double p);

/// Median of a non-empty sample (average of the middle pair when even);
/// 0 for an empty one.
double median(std::vector<double> samples);

/// Geometric mean of positive values; 0 for an empty list.
double geomean(const std::vector<double>& values);

/// A metric name: 1..64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit.
bool valid_metric_name(const std::string& name);

/// Attempted/failed operation counts with the first few failure reasons.
class Tally {
 public:
  void ok() { ++attempted_; }
  void fail(const std::string& reason);
  void merge(const Tally& other);
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> reasons_;  // at most kMaxReasons kept
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The benchmark's last output line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string result_json(bool correct, std::int64_t attempted, std::int64_t failed,
                        const std::vector<Metric>& metrics);

/// Process CPU seconds (user + system, all threads) so far.
double process_cpu_seconds();
/// Peak resident set size of the process, in MiB.
double peak_rss_mb();
/// Monotonic seconds.
double now_seconds();

/// Layer of the repository a trace span belongs to ("netlist", "core",
/// "mapping", "retime", "cache", "verify"), or "" for spans no layer owns.
/// The benchmark's own spans are named "<layer>:<call>".
std::string span_layer(const std::string& span_name);

/// Sums each layer's self time over the sink's spans: a span's duration
/// minus the part of it covered by its child spans.
std::map<std::string, double> layer_self_seconds(const std::vector<turbosyn::TraceEvent>& events);

}  // namespace synthbench
