#include "core/probe_ledger.hpp"

#include <string>

#include "base/check.hpp"

namespace turbosyn {

const char* label_mode_name(LabelMode m) {
  switch (m) {
    case LabelMode::kPlain:
      return "plain";
    case LabelMode::kDecomp:
      return "decomp";
  }
  return "?";
}

const char* probe_outcome_name(ProbeOutcome o) {
  switch (o) {
    case ProbeOutcome::kOk:
      return "ok";
    case ProbeOutcome::kInfeasible:
      return "infeasible";
    case ProbeOutcome::kDegraded:
      return "degraded";
    case ProbeOutcome::kInterrupted:
      return "interrupted";
  }
  return "?";
}

std::uint64_t hash_labels(std::span<const int> labels) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const int label : labels) {
    std::uint32_t bits = static_cast<std::uint32_t>(label);
    for (int byte = 0; byte < 4; ++byte) {
      h ^= bits & 0xffu;
      h *= 1099511628211ULL;
      bits >>= 8;
    }
  }
  return h;
}

ProbeOutcome classify_probe(const LabelResult& r) {
  if (is_interrupt(r.status)) return ProbeOutcome::kInterrupted;
  if (r.status != Status::kOk) return ProbeOutcome::kDegraded;
  return r.feasible ? ProbeOutcome::kOk : ProbeOutcome::kInfeasible;
}

bool ProbeLedger::contains(const std::string& engine, LabelMode mode, int phi) const {
  return find(engine, mode, phi) != nullptr;
}

const ProbeRecord* ProbeLedger::find(const std::string& engine, LabelMode mode,
                                     int phi) const {
  for (const ProbeRecord& r : records_) {
    if (r.engine == engine && r.mode == mode && r.phi == phi) return &r;
  }
  return nullptr;
}

void ProbeLedger::record(ProbeRecord r) {
  TS_CHECK(!contains(r.engine, r.mode, r.phi),
           "phi=" + std::to_string(r.phi) + " (" + label_mode_name(r.mode) +
               (r.engine.empty() ? std::string() : ", engine " + r.engine) +
               ") probed twice in one run");
  records_.push_back(std::move(r));
}

}  // namespace turbosyn
