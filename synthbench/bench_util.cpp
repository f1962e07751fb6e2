#include "bench_util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "base/json_util.hpp"

namespace synthbench {

namespace {

constexpr std::size_t kMaxReasons = 8;

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::optional<double> percentile(std::vector<double> samples, double p) {
  if (!(p > 0.0 && p < 1.0)) return std::nullopt;
  const double beyond = static_cast<double>(samples.size()) * (1.0 - p);
  if (beyond < 10.0 - 1e-9) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::max<std::size_t>(rank, 1) - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

void Tally::fail(const std::string& reason) {
  ++attempted_;
  ++failed_;
  if (reasons_.size() < kMaxReasons) reasons_.push_back(reason);
}

void Tally::merge(const Tally& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& r : other.reasons_) {
    if (reasons_.size() < kMaxReasons) reasons_.push_back(r);
  }
}

std::string result_json(bool correct, std::int64_t attempted, std::int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    turbosyn::json_append_string(out, metrics[i].name);
    out += ":{\"value\":" + turbosyn::json_double(metrics[i].value) + ",\"unit\":";
    turbosyn::json_append_string(out, metrics[i].unit);
    out += "}";
  }
  out += "}}";
  return out;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string span_layer(const std::string& name) {
  for (const char* layer : {"netlist", "core", "cache", "verify"}) {
    if (starts_with(name, layer) && name.size() > std::char_traits<char>::length(layer) &&
        name[std::char_traits<char>::length(layer)] == ':') {
      return layer;
    }
  }
  if (name == "stage:pack" || name == "stage:flowsyn-map") return "mapping";
  if (name == "stage:pipeline-retime") return "retime";
  if (name == "stage:cached-search" || ends_with(name, "(cache hit)")) return "cache";
  if (starts_with(name, "stage:") || starts_with(name, "flow:") || starts_with(name, "phase:") ||
      starts_with(name, "engine:") || name == "probe") {
    return "core";
  }
  return "";
}

std::map<std::string, double> layer_self_seconds(
    const std::vector<turbosyn::TraceEvent>& events) {
  std::unordered_map<int, std::vector<std::pair<double, double>>> children;
  for (const turbosyn::TraceEvent& e : events) {
    if (e.parent >= 0) children[e.parent].emplace_back(e.start_s, e.start_s + e.seconds);
  }
  std::map<std::string, double> self;
  for (const turbosyn::TraceEvent& e : events) {
    const std::string layer = span_layer(e.name);
    if (layer.empty()) continue;
    const double lo = e.start_s;
    const double hi = e.start_s + e.seconds;
    double covered = 0.0;
    auto it = children.find(e.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>>& spans = it->second;
      std::sort(spans.begin(), spans.end());
      double run_lo = 0.0;
      double run_hi = -1.0;
      for (const auto& [a0, b0] : spans) {
        const double a = std::max(a0, lo);
        const double b = std::min(b0, hi);
        if (b <= a) continue;
        if (a > run_hi) {
          if (run_hi > run_lo) covered += run_hi - run_lo;
          run_lo = a;
          run_hi = b;
        } else {
          run_hi = std::max(run_hi, b);
        }
      }
      if (run_hi > run_lo) covered += run_hi - run_lo;
    }
    self[layer] += std::max(0.0, e.seconds - covered);
  }
  return self;
}

}  // namespace synthbench
