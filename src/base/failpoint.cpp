#include "base/failpoint.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <thread>

#include "base/check.hpp"

namespace turbosyn {
namespace failpoint {
namespace {

struct SiteConfig {
  Action action = Action::kOff;
  std::int64_t arg = 0;
  std::int64_t from = 1;       // first hit (1-based) that fires
  std::int64_t count = -1;     // firings before going quiet (-1 = unlimited)
  std::int64_t hits = 0;       // evaluations of this site
  std::int64_t triggers = 0;   // policies actually fired
};

struct Registry {
  std::mutex mu;
  std::map<std::string, SiteConfig> sites;
};

Registry& registry() {
  static Registry r;
  return r;
}

std::atomic<bool> armed{false};

std::int64_t default_arg(Action action) {
  switch (action) {
    case Action::kPartialWrite:
      return 16;   // bytes kept
    case Action::kDelay:
      return 1;    // milliseconds
    case Action::kCrash:
      return 137;  // exit code, the kill -9 convention
    default:
      return 0;
  }
}

bool parse_action(const std::string& name, Action& action) {
  if (name == "off") action = Action::kOff;
  else if (name == "error") action = Action::kError;
  else if (name == "throw") action = Action::kThrow;
  else if (name == "partial") action = Action::kPartialWrite;
  else if (name == "delay") action = Action::kDelay;
  else if (name == "crash") action = Action::kCrash;
  else return false;
  return true;
}

bool parse_int(const std::string& text, std::int64_t& value) {
  if (text.empty()) return false;
  try {
    std::size_t used = 0;
    value = std::stoll(text, &used);
    return used == text.size();
  } catch (...) {
    return false;
  }
}

/// One `site=action[:arg][@from][*count]` clause into (name, config).
bool parse_clause(const std::string& clause, std::string& site, SiteConfig& config,
                  std::string& error) {
  const std::size_t eq = clause.find('=');
  if (eq == std::string::npos || eq == 0) {
    error = "clause '" + clause + "' is not site=action";
    return false;
  }
  site = clause.substr(0, eq);
  std::string rest = clause.substr(eq + 1);

  // Suffixes bind rightmost-first: *count, then @from, then :arg.
  const auto take_suffix = [&rest](char sep, std::string& out) {
    const std::size_t at = rest.rfind(sep);
    if (at == std::string::npos) return false;
    out = rest.substr(at + 1);
    rest.resize(at);
    return true;
  };
  std::string count_text;
  std::string from_text;
  std::string arg_text;
  if (take_suffix('*', count_text) && !parse_int(count_text, config.count)) {
    error = "bad *count in '" + clause + "'";
    return false;
  }
  if (take_suffix('@', from_text) && !parse_int(from_text, config.from)) {
    error = "bad @from in '" + clause + "'";
    return false;
  }
  if (take_suffix(':', arg_text) && !parse_int(arg_text, config.arg)) {
    error = "bad :arg in '" + clause + "'";
    return false;
  }
  if (!parse_action(rest, config.action)) {
    error = "unknown action '" + rest + "' in '" + clause +
            "' (expected off|error|throw|partial|delay|crash)";
    return false;
  }
  if (arg_text.empty()) config.arg = default_arg(config.action);
  if (config.from < 1 || config.count == 0 || config.count < -1) {
    error = "bad @from/*count range in '" + clause + "'";
    return false;
  }
  return true;
}

}  // namespace

bool enabled() { return armed.load(std::memory_order_relaxed); }

Hit check(const char* site) {
  Action action = Action::kOff;
  std::int64_t arg = 0;
  {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    const auto it = r.sites.find(site);
    if (it == r.sites.end()) return Hit{};
    SiteConfig& config = it->second;
    ++config.hits;
    if (config.action == Action::kOff) return Hit{};
    if (config.hits < config.from) return Hit{};
    if (config.count >= 0 && config.triggers >= config.count) return Hit{};
    ++config.triggers;
    action = config.action;
    arg = config.arg;
  }
  // Policies that act here act outside the lock: a throw must not poison the
  // registry mutex and a delay must not serialize unrelated sites.
  switch (action) {
    case Action::kThrow:
      throw Error(std::string("failpoint ") + site);
    case Action::kCrash:
      // Simulated kill between two instructions: no destructors, no atexit,
      // no stream flushes — exactly the torn state crash recovery must face.
      std::_Exit(static_cast<int>(arg));
    case Action::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(arg));
      return Hit{Action::kDelay, arg};
    default:
      return Hit{action, arg};
  }
}

bool configure(const std::string& spec, std::string* error) {
  // Parse the whole spec before arming anything: a malformed spec arms
  // nothing rather than half of a schedule.
  std::vector<std::pair<std::string, SiteConfig>> parsed;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string clause = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (clause.empty()) continue;
    std::string site;
    SiteConfig config;
    std::string parse_error;
    if (!parse_clause(clause, site, config, parse_error)) {
      if (error != nullptr) *error = parse_error;
      return false;
    }
    parsed.emplace_back(std::move(site), config);
  }

  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [site, config] : parsed) {
    SiteConfig& slot = r.sites[site];
    const std::int64_t hits = slot.hits;         // counters survive re-arming
    const std::int64_t triggers = slot.triggers;
    slot = config;
    slot.hits = hits;
    slot.triggers = triggers;
  }
  bool any_armed = false;
  for (const auto& [site, config] : r.sites) {
    if (config.action != Action::kOff) any_armed = true;
  }
  armed.store(any_armed, std::memory_order_relaxed);
  return true;
}

bool configure_from_env() {
  const char* spec = std::getenv("TS_FAILPOINTS");
  if (spec == nullptr || *spec == '\0') return true;
  std::string error;
  if (!configure(spec, &error)) {
    std::cerr << "error: TS_FAILPOINTS: " << error << '\n';
    return false;
  }
  return true;
}

void clear() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  r.sites.clear();
  armed.store(false, std::memory_order_relaxed);
}

std::int64_t hits(const std::string& site) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.sites.find(site);
  return it == r.sites.end() ? 0 : it->second.hits;
}

std::int64_t triggers(const std::string& site) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.sites.find(site);
  return it == r.sites.end() ? 0 : it->second.triggers;
}

std::vector<std::pair<std::string, std::int64_t>> trigger_counts() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::pair<std::string, std::int64_t>> counts;
  for (const auto& [site, config] : r.sites) {
    if (config.triggers > 0) counts.emplace_back(site, config.triggers);
  }
  return counts;
}

std::vector<std::string> known_sites() {
  // The compiled-in catalog, kept in sync with DESIGN.md §13. Sites are
  // plain strings at the call sites; this list exists for fuzz schedules
  // and documentation, not for validation (an unknown site simply never
  // fires).
  return {
      "blif.read",           // netlist/blif.cpp: file ingest
      "cache.entry.read",    // cache/flow_cache.cpp: entry load
      "cache.entry.write",   // cache/flow_cache.cpp: tmp-file body write
      "cache.entry.rename",  // cache/flow_cache.cpp: tmp -> final publish
      "driver.stage",        // core/driver.cpp: FlowContext::run_stage, every
                             // stage boundary (driver.stage.<name> targets
                             // one stage)
      "batch.job",           // service/batch_runner.cpp: per-circuit boundary
      "batch.jsonl.write",   // service/batch_runner.cpp: record emission
  };
}

Scoped::Scoped(const std::string& spec) {
  std::string error;
  TS_CHECK(configure(spec, &error), "failpoint spec: " << error);
}

Scoped::~Scoped() { clear(); }

}  // namespace failpoint
}  // namespace turbosyn
