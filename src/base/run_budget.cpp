#include "base/run_budget.hpp"

#include <algorithm>
#include <csignal>

namespace turbosyn {

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kDegraded:
      return "degraded";
    case Status::kInvalidInput:
      return "invalid_input";
    case Status::kDeadlineExceeded:
      return "deadline_exceeded";
    case Status::kCancelled:
      return "cancelled";
    case Status::kFailed:
      return "failed";
  }
  return "unknown";
}

Status combine_status(Status a, Status b) {
  return static_cast<std::uint8_t>(a) >= static_cast<std::uint8_t>(b) ? a : b;
}

CancelToken& global_cancel_token() {
  static CancelToken token;
  return token;
}

namespace {

extern "C" void sigint_cancel_handler(int sig) {
  global_cancel_token().cancel();
  // A second SIGINT falls through to the default disposition (terminate),
  // so a stuck run can still be killed from the keyboard.
  std::signal(sig, SIG_DFL);
}

}  // namespace

void install_sigint_cancellation() { std::signal(SIGINT, sigint_cancel_handler); }

void install_sigterm_cancellation() { std::signal(SIGTERM, sigint_cancel_handler); }

RunBudget::State& RunBudget::mutable_state() {
  if (!state_) state_ = std::make_shared<State>();
  return *state_;
}

void RunBudget::set_deadline_after(std::chrono::milliseconds ms) {
  State& s = mutable_state();
  s.has_deadline = true;
  s.deadline = std::chrono::steady_clock::now() + ms;
}

void RunBudget::set_cancel_token(const CancelToken* token) { mutable_state().cancel = token; }

void RunBudget::set_decomp_attempt_budget(std::int64_t attempts) {
  mutable_state().decomp_attempts = attempts;
}

Status RunBudget::check() const {
  const State* s = state_.get();
  if (s == nullptr) return Status::kOk;
  if (s->cancel != nullptr && s->cancel->cancelled()) return Status::kCancelled;
  if (s->has_deadline) {
    if (s->deadline_hit.load(std::memory_order_relaxed)) return Status::kDeadlineExceeded;
    if (std::chrono::steady_clock::now() >= s->deadline) {
      s->deadline_hit.store(true, std::memory_order_relaxed);
      return Status::kDeadlineExceeded;
    }
  }
  return Status::kOk;
}

bool RunBudget::try_consume_decomp_attempt() const {
  const State* s = state_.get();
  if (s == nullptr || s->decomp_attempts <= 0) return true;
  return s->decomp_attempts_used.fetch_add(1, std::memory_order_relaxed) < s->decomp_attempts;
}

RunBudget RunBudget::fork() const {
  RunBudget child;
  const State* s = state_.get();
  if (s == nullptr) return child;
  State& cs = child.mutable_state();
  cs.has_deadline = s->has_deadline;
  cs.deadline = s->deadline;
  cs.cancel = s->cancel;
  cs.decomp_attempts = s->decomp_attempts;
  return child;
}

// ----------------------------------------------------------------- pool ----

BudgetPool::BudgetPool(std::int64_t total_ms, std::int64_t per_request_ms)
    : total_ms_(total_ms > 0 ? total_ms : 0),
      per_request_ms_(per_request_ms > 0 ? per_request_ms : 0),
      remaining_ms_(total_ms_) {}

std::int64_t BudgetPool::carve(std::int64_t requested_ms) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::int64_t want = requested_ms > 0 ? requested_ms : per_request_ms_;
  if (per_request_ms_ > 0 && (want == 0 || want > per_request_ms_)) {
    want = per_request_ms_;
  }
  if (total_ms_ == 0) return want;  // unlimited pool: the ceiling alone governs
  std::int64_t slice = want > 0 ? std::min(want, remaining_ms_) : remaining_ms_;
  // An exhausted pool still serves: a 1ms slice makes the request report
  // kDeadlineExceeded honestly instead of hanging admission on refunds.
  if (slice < 1) slice = 1;
  remaining_ms_ -= std::min(slice, remaining_ms_);
  return slice;
}

void BudgetPool::refund(std::int64_t carved_ms, std::int64_t used_ms) {
  if (total_ms_ == 0 || carved_ms <= 0) return;
  const std::int64_t unused =
      std::max<std::int64_t>(0, carved_ms - std::max<std::int64_t>(0, used_ms));
  const std::lock_guard<std::mutex> lock(mu_);
  remaining_ms_ = std::min(total_ms_, remaining_ms_ + unused);
}

std::int64_t BudgetPool::remaining() const {
  if (total_ms_ == 0) return -1;
  const std::lock_guard<std::mutex> lock(mu_);
  return remaining_ms_;
}

}  // namespace turbosyn
