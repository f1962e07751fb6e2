#pragma once
// Run budgets and cooperative cancellation for the solver stack.
//
// A RunBudget bundles a wall-clock deadline, a cancellation token and one
// resource ceiling (decomposition attempts per run). Solvers poll check()
// at natural boundaries (sweeps, probes, batch items) and wind down
// gracefully instead of throwing; the attempt ceiling degrades the affected
// node to its plain K-cut label, which is always a sound fallback because
// decomposition is strictly label-improving.
//
// A default-constructed RunBudget is unlimited and costs one pointer
// comparison per check, so budget-free runs stay bit-identical to the
// pre-budget code. Copies of a RunBudget share state (the deadline latch and
// the attempt counter are common to every holder), so passing budgets by
// value through option structs keeps one logical budget per run.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

namespace turbosyn {

/// Outcome classification carried by LabelResult / FlowResult. Severity is
/// ordered: combine_status() keeps the worse of two outcomes.
enum class Status : std::uint8_t {
  kOk = 0,             // exact result, no budget interfered
  kDegraded,           // a resource ceiling altered the computation (result
                       // is valid but possibly weaker, and an "infeasible"
                       // verdict is no longer a certificate)
  kInvalidInput,       // the input was rejected up front
  kDeadlineExceeded,   // the wall-clock deadline fired; result is best-so-far
  kCancelled,          // the cancellation token fired; result is best-so-far
  kFailed,             // a stage threw (or an injected fault fired) and the
                       // driver contained it: the run is not a deliverable,
                       // never a certificate, never cacheable — see
                       // FlowResult::failed_stage for the boundary that blew
};

const char* status_name(Status s);

/// The worse of two outcomes (Failed > Cancelled > DeadlineExceeded >
/// InvalidInput > Degraded > Ok).
Status combine_status(Status a, Status b);

/// The run was stopped before finishing (vs merely degraded): results are
/// best-so-far, labels from such a probe must not be used for mapping.
inline bool is_interrupt(Status s) {
  return s == Status::kDeadlineExceeded || s == Status::kCancelled;
}

/// Cooperative cancellation flag. cancel() is async-signal-safe (a lock-free
/// atomic store), so it may be called from a SIGINT handler; workers observe
/// it through RunBudget::check() between tasks and at sweep boundaries.
class CancelToken {
 public:
  void cancel() noexcept { flag_.store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept {
    if (flag_.load(std::memory_order_relaxed)) return true;
    const CancelToken* parent = parent_.load(std::memory_order_relaxed);
    return parent != nullptr && parent->cancelled();
  }
  void reset() noexcept { flag_.store(false, std::memory_order_relaxed); }

  /// Chains this token under `parent` (nullptr unchains): cancelled() then
  /// also reports true once the parent fires, while cancel() still flips
  /// only this token. The portfolio runner hangs one per-engine token off
  /// the flow-level token this way — cancelling one losing engine never
  /// touches its siblings, but a SIGINT at the flow level stops every
  /// engine. The parent is not owned and must outlive the chained runs.
  void chain_to(const CancelToken* parent) noexcept {
    parent_.store(parent, std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> flag_{false};
  std::atomic<const CancelToken*> parent_{nullptr};
};
static_assert(std::atomic<bool>::is_always_lock_free,
              "CancelToken::cancel must stay async-signal-safe");

/// Process-wide token, the conventional target for SIGINT.
CancelToken& global_cancel_token();

/// Installs a SIGINT handler that cancels global_cancel_token(). Budgets
/// wired to that token then drain cooperatively; a second SIGINT restores
/// the default handler, so it terminates the process as usual.
void install_sigint_cancellation();

/// Same cooperative-cancel handler for SIGTERM: a service manager's polite
/// kill drains batches exactly like Ctrl-C (running circuits wind down to
/// best-so-far, queued circuits are skipped); a second SIGTERM terminates.
void install_sigterm_cancellation();

class RunBudget {
 public:
  /// Unlimited: every check is kOk, every ceiling is off.
  RunBudget() = default;

  /// Wall-clock deadline, measured from now. Once exceeded the verdict is
  /// latched, so clocks are no longer read and all threads agree.
  void set_deadline_after(std::chrono::milliseconds ms);
  void set_deadline_after_ms(std::int64_t ms) { set_deadline_after(std::chrono::milliseconds(ms)); }

  /// Token polled by check(); the token is not owned and must outlive runs.
  void set_cancel_token(const CancelToken* token);
  /// The token check() polls (nullptr when none was set).
  const CancelToken* cancel_token() const { return state_ ? state_->cancel : nullptr; }

  /// Total decomposition attempts of the label search per run (0 =
  /// unlimited); consumed via try_consume_decomp_attempt(). Mapping
  /// generation's rebuild of the converged labels is not metered.
  void set_decomp_attempt_budget(std::int64_t attempts);

  /// True iff any knob is configured; the fast "no budget" test.
  bool limited() const { return state_ != nullptr; }

  /// Cooperative poll: kCancelled, kDeadlineExceeded, or kOk. Cheap enough
  /// for per-item use (two relaxed loads; a clock read only until the
  /// deadline verdict latches).
  Status check() const;
  bool interrupted() const { return state_ != nullptr && check() != Status::kOk; }

  /// Claims one decomposition attempt; false once the ceiling is spent
  /// (callers then fall back to the plain K-cut label for that node).
  bool try_consume_decomp_attempt() const;

  /// An independent child budget: same resource ceilings, same absolute
  /// deadline and same cancel token, but fresh consumption state (the
  /// deadline latch and the decomposition-attempt counter start over). The
  /// portfolio runner forks one slice per racing engine so a spendthrift
  /// engine cannot exhaust its siblings' attempt budgets; the parent budget
  /// itself is untouched. Forking an unlimited budget yields an unlimited
  /// budget.
  RunBudget fork() const;

  /// Moves the deadline to min(current deadline, now + ms) — a fork may be
  /// narrowed to a pool slice but can never outlive its parent's deadline.
  void tighten_deadline(std::chrono::milliseconds ms);
  void tighten_deadline_ms(std::int64_t ms) { tighten_deadline(std::chrono::milliseconds(ms)); }

 private:
  struct State {
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    mutable std::atomic<bool> deadline_hit{false};
    const CancelToken* cancel = nullptr;
    std::int64_t decomp_attempts = 0;
    mutable std::atomic<std::int64_t> decomp_attempts_used{0};
  };

  State& mutable_state();

  std::shared_ptr<State> state_;
};

/// Global wall-clock budget that long-lived callers carve per-run slices
/// from: the mapping daemon slices it per request, the portfolio runner per
/// racing engine. total_ms == 0 means an unlimited pool (slices are just the
/// per-request ceiling). Refunding returns a slice's unused portion, so the
/// pool meters actual spend, not reservations.
class BudgetPool {
 public:
  BudgetPool(std::int64_t total_ms, std::int64_t per_request_ms);

  /// The slice for one run: min(requested or per-request ceiling, pool
  /// remaining). 0 = unlimited (only when both the pool and the ceilings
  /// are unlimited); an exhausted pool yields 1ms slices — the run still
  /// happens, reports kDeadlineExceeded best-so-far, and the record says
  /// why.
  std::int64_t carve(std::int64_t requested_ms);

  /// Returns `carved - used` (clamped at 0) to the pool.
  void refund(std::int64_t carved_ms, std::int64_t used_ms);

  /// Milliseconds left (-1 = unlimited).
  std::int64_t remaining() const;
  std::int64_t total() const { return total_ms_; }

 private:
  mutable std::mutex mu_;
  std::int64_t total_ms_;
  std::int64_t per_request_ms_;
  std::int64_t remaining_ms_;
};

}  // namespace turbosyn
