#include "base/trace.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "base/json_util.hpp"

namespace turbosyn {
namespace {

using Clock = std::chrono::steady_clock;

/// Innermost open span of the calling thread (spans nest strictly).
thread_local TraceSpan* t_current_span = nullptr;

/// One escaper for every JSON emitter (base/json_util.hpp): the trace sink
/// must render names byte-for-byte like the batch/daemon record emitters,
/// or the same circuit appears under two spellings across artifacts.
void json_escape(std::ostream& os, const std::string& s) {
  std::string out;
  out.reserve(s.size());
  turbosyn::json_escape(out, s);
  os << out;
}

void json_counters(std::ostream& os,
                   const std::vector<std::pair<std::string, std::int64_t>>& counters) {
  os << '{';
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) os << ", ";
    first = false;
    os << '"';
    json_escape(os, name);
    os << "\": " << value;
  }
  os << '}';
}

}  // namespace

TraceSink::TraceSink() : epoch_(Clock::now()) {}

int TraceSink::begin_span() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void TraceSink::post(TraceEvent event) {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> TraceSink::events() const {
  std::vector<TraceEvent> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out = events_;
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.id < b.id; });
  return out;
}

std::map<std::string, std::int64_t> TraceSink::totals() const {
  std::map<std::string, std::int64_t> out;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const TraceEvent& e : events_) {
    for (const auto& [name, value] : e.counters) out[name] += value;
  }
  return out;
}

double TraceSink::total_seconds() const {
  double total = 0.0;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const TraceEvent& e : events_) {
    if (e.depth == 0) total += e.seconds;
  }
  return total;
}

void TraceSink::write_json(std::ostream& os) const {
  const std::vector<TraceEvent> evs = events();
  double total = 0.0;
  std::map<std::string, std::int64_t> agg;
  for (const TraceEvent& e : evs) {
    if (e.depth == 0) total += e.seconds;
    for (const auto& [name, value] : e.counters) agg[name] += value;
  }
  os << "{\n  \"version\": 1,\n  \"total_seconds\": " << total << ",\n  \"counters\": ";
  std::vector<std::pair<std::string, std::int64_t>> agg_list(agg.begin(), agg.end());
  json_counters(os, agg_list);
  os << ",\n  \"spans\": [";
  bool first = true;
  for (const TraceEvent& e : evs) {
    if (!first) os << ',';
    first = false;
    os << "\n    { \"id\": " << e.id << ", \"parent\": " << e.parent
       << ", \"depth\": " << e.depth << ", \"name\": \"";
    json_escape(os, e.name);
    os << "\", \"detail\": \"";
    json_escape(os, e.detail);
    os << "\", \"start_s\": " << e.start_s << ", \"seconds\": " << e.seconds
       << ", \"counters\": ";
    json_counters(os, e.counters);
    os << " }";
  }
  os << "\n  ]\n}\n";
}

std::string TraceSink::to_json() const {
  std::ostringstream os;
  os.precision(9);
  write_json(os);
  return os.str();
}

bool TraceSink::write_json_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(9);
  write_json(out);
  return static_cast<bool>(out);
}

TraceSpan::TraceSpan(TraceSink* sink, std::string name, std::string detail) : sink_(sink) {
  if (sink_ == nullptr) return;
  start_ = Clock::now();
  event_.id = sink_->begin_span();
  event_.name = std::move(name);
  event_.detail = std::move(detail);
  event_.start_s = std::chrono::duration<double>(start_ - sink_->epoch_).count();
  outer_ = t_current_span;
  event_.parent = outer_ != nullptr ? outer_->event_.id : -1;
  event_.depth = outer_ != nullptr ? outer_->event_.depth + 1 : 0;
  t_current_span = this;
}

TraceSpan::~TraceSpan() {
  if (sink_ == nullptr) return;
  event_.seconds = std::chrono::duration<double>(Clock::now() - start_).count();
  t_current_span = outer_;
  sink_->post(std::move(event_));
}

void TraceSpan::set_detail(std::string detail) {
  if (sink_ != nullptr) event_.detail = std::move(detail);
}

void TraceSpan::counter(const std::string& name, std::int64_t value) {
  if (sink_ == nullptr || value == 0) return;
  for (auto& [n, v] : event_.counters) {
    if (n == name) {
      v += value;
      return;
    }
  }
  event_.counters.emplace_back(name, value);
}

double TraceSpan::seconds_so_far() const {
  if (sink_ == nullptr) return 0.0;
  return std::chrono::duration<double>(Clock::now() - start_).count();
}

}  // namespace turbosyn
