// Run budgets, cooperative cancellation and graceful degradation.
//
// The invariants checked here are the anytime contract:
//   - an unconfigured budget never interferes (kOk, bit-identical results);
//   - resource ceilings (decomposition attempts, sweep caps) degrade nodes
//     to their plain K-cut labels and report Status::kDegraded — the mapping stays valid and equivalent;
//   - a kOk flow's mapping reaches the phi it reports (exact MDR <= phi);
//   - deadlines and cancellation stop the search cooperatively and still
//     return an equivalent best-so-far (or identity-fallback) mapping;
//   - a budget-imposed "infeasible" is distinguishable from a genuine
//     divergence certificate (kDegraded vs kOk).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "base/rng.hpp"
#include "base/run_budget.hpp"
#include "base/thread_pool.hpp"
#include "core/flows.hpp"
#include "core/labeling.hpp"
#include "netlist/blif.hpp"
#include "sim/simulator.hpp"
#include "workloads/generator.hpp"
#include "workloads/samples.hpp"

namespace turbosyn {
namespace {

// Sequential mapping absorbs registers into LUTs, which changes the
// effective initial state; equivalence is checked from `warmup` onward.
void expect_equivalent(const Circuit& a, const Circuit& b, int cycles, std::uint64_t seed,
                       int warmup = 12) {
  ASSERT_EQ(a.num_pis(), b.num_pis());
  ASSERT_EQ(a.num_pos(), b.num_pos());
  Rng rng(seed);
  const auto stimulus = random_stimulus(rng, a.num_pis(), cycles);
  const auto out_a = simulate_sequence(a, stimulus);
  const auto out_b = simulate_sequence(b, stimulus);
  for (int t = warmup; t < cycles; ++t) {
    ASSERT_EQ(out_a[static_cast<std::size_t>(t)], out_b[static_cast<std::size_t>(t)])
        << "outputs diverge at cycle " << t;
  }
}

// A kOk verdict promises the mapping reaches the reported phi.
void expect_ok_reaches_phi(const FlowResult& r) {
  if (r.status == Status::kOk) {
    EXPECT_LE(r.exact_mdr, Rational(r.phi)) << "kOk with exact MDR " << r.exact_mdr.to_string()
                                            << " above phi " << r.phi;
  }
}

TEST(RunBudget, DefaultIsUnlimited) {
  const RunBudget b;
  EXPECT_FALSE(b.limited());
  EXPECT_EQ(b.check(), Status::kOk);
  EXPECT_FALSE(b.interrupted());
  // With no attempt ceiling every claim succeeds.
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(b.try_consume_decomp_attempt());
}

TEST(RunBudget, CancelTokenFiresAndCopiesShareState) {
  CancelToken token;
  RunBudget b;
  b.set_cancel_token(&token);
  const RunBudget copy = b;  // copies share the same logical budget
  EXPECT_EQ(b.check(), Status::kOk);
  token.cancel();
  EXPECT_EQ(b.check(), Status::kCancelled);
  EXPECT_EQ(copy.check(), Status::kCancelled);
  EXPECT_TRUE(copy.interrupted());
  token.reset();
  EXPECT_EQ(b.check(), Status::kOk);
}

TEST(RunBudget, ExpiredDeadlineLatches) {
  RunBudget b;
  b.set_deadline_after_ms(0);
  // The deadline is "now"; the first check at or after it latches the verdict.
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (b.check() != Status::kDeadlineExceeded) {
    ASSERT_LT(std::chrono::steady_clock::now(), until) << "deadline never fired";
    std::this_thread::yield();
  }
  EXPECT_EQ(b.check(), Status::kDeadlineExceeded);  // latched
  EXPECT_TRUE(b.interrupted());
}

TEST(RunBudget, DecompAttemptCeilingIsShared) {
  RunBudget b;
  b.set_decomp_attempt_budget(2);
  const RunBudget copy = b;
  EXPECT_TRUE(b.try_consume_decomp_attempt());
  EXPECT_TRUE(copy.try_consume_decomp_attempt());
  EXPECT_FALSE(b.try_consume_decomp_attempt());
  EXPECT_FALSE(copy.try_consume_decomp_attempt());
}

TEST(RunBudget, CombineStatusKeepsTheWorse) {
  EXPECT_EQ(combine_status(Status::kOk, Status::kOk), Status::kOk);
  EXPECT_EQ(combine_status(Status::kOk, Status::kDegraded), Status::kDegraded);
  EXPECT_EQ(combine_status(Status::kDegraded, Status::kDeadlineExceeded),
            Status::kDeadlineExceeded);
  EXPECT_EQ(combine_status(Status::kCancelled, Status::kDeadlineExceeded), Status::kCancelled);
  EXPECT_EQ(combine_status(Status::kInvalidInput, Status::kDegraded), Status::kInvalidInput);
}

TEST(Budget, AttemptStarvedTurboSynDegradesToPlainCutLabels) {
  // At K=3 the Figure-1 loop needs Roth-Karp decomposition to reach ratio 1;
  // with a one-attempt ceiling the search cannot prove it, so TurboSYN
  // degrades to TurboMap's ratio 2 — and says so via the status.
  const Circuit c = figure1_circuit();
  FlowOptions opt;
  opt.k = 3;
  opt.budget.set_decomp_attempt_budget(1);
  const FlowResult r = run_turbosyn(c, opt);
  EXPECT_EQ(r.phi, 2);
  EXPECT_EQ(r.status, Status::kDegraded);
  EXPECT_FALSE(r.timed_out);
  EXPECT_EQ(r.stats.decomp_budget_hits, 4);
  EXPECT_EQ(r.degraded_nodes.size(), 2u);
  expect_ok_reaches_phi(r);
  expect_equivalent(c, r.mapped, 64, 21);
}

TEST(Budget, DecompAttemptCeilingStillYieldsEquivalentMapping) {
  const Circuit c = figure1_circuit();
  FlowOptions opt;
  opt.k = 3;
  opt.budget.set_decomp_attempt_budget(1);
  const FlowResult r = run_turbosyn(c, opt);
  EXPECT_TRUE(r.phi == 1 || r.phi == 2);
  EXPECT_NE(r.status, Status::kDeadlineExceeded);
  EXPECT_NE(r.status, Status::kCancelled);
  expect_ok_reaches_phi(r);
  expect_equivalent(c, r.mapped, 64, 22);
}

TEST(Budget, CeilingSpentBySearchStillLetsMappingReachPhi) {
  // Four attempts are exactly what the search needs to prove ratio 1, so
  // none are left when mapping generation rebuilds the proven realization.
  // That rebuild is not metered: the mapping reaches phi 1 and the run is kOk.
  // One attempt fewer and the search cannot prove ratio 1.
  const Circuit c = figure1_circuit();
  FlowOptions short_opt;
  short_opt.k = 3;
  short_opt.budget.set_decomp_attempt_budget(3);
  const FlowResult short_run = run_turbosyn(c, short_opt);
  EXPECT_EQ(short_run.phi, 2);
  EXPECT_EQ(short_run.status, Status::kDegraded);

  FlowOptions opt;
  opt.k = 3;
  opt.budget.set_decomp_attempt_budget(4);
  const FlowResult r = run_turbosyn(c, opt);
  EXPECT_EQ(r.phi, 1);
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.stats.decomp_budget_hits, 0);
  EXPECT_TRUE(r.degraded_nodes.empty());
  EXPECT_EQ(r.exact_mdr, Rational(1));
  expect_equivalent(c, r.mapped, 64, 27);
}

TEST(Budget, ExpiredDeadlineReturnsIdentityFallback) {
  const Circuit c = figure1_circuit();
  FlowOptions opt;
  opt.k = 3;
  opt.budget.set_deadline_after_ms(0);
  const FlowResult r = run_turbomap(c, opt);
  EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  EXPECT_TRUE(r.timed_out);
  expect_equivalent(c, r.mapped, 64, 24);
}

TEST(Budget, PreCancelledTokenStopsTurboSynGracefully) {
  const Circuit c = figure1_circuit();
  CancelToken token;
  token.cancel();
  FlowOptions opt;
  opt.k = 3;
  opt.budget.set_cancel_token(&token);
  const FlowResult r = run_turbosyn(c, opt);
  EXPECT_EQ(r.status, Status::kCancelled);
  EXPECT_TRUE(r.timed_out);
  expect_equivalent(c, r.mapped, 64, 25);
}

TEST(Budget, AsyncCancellationDrainsFlow) {
  // Cancel from another thread mid-run: the flow must terminate promptly and
  // still return a valid, equivalent mapping (best-so-far or the identity
  // fallback).
  const Circuit c = generate_fsm_circuit(tiny_suite()[0]);
  CancelToken token;
  FlowOptions opt;
  opt.budget.set_cancel_token(&token);
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    token.cancel();
  });
  const FlowResult r = run_turbosyn(c, opt);
  canceller.join();
  // Depending on timing the run may have finished before the cancel landed.
  EXPECT_TRUE(r.status == Status::kOk || r.status == Status::kDegraded ||
              r.status == Status::kCancelled)
      << status_name(r.status);
  expect_ok_reaches_phi(r);
  expect_equivalent(c, r.mapped, 64, 26);
}

TEST(Budget, SweepBudgetVerdictIsNotACertificate) {
  // TurboMap at phi = 1 on the Figure-1 circuit is genuinely infeasible:
  // without any budget the infeasible verdict is a certificate (kOk). With a
  // 1-sweep cap (and the n^2 criterion, which the cap undercuts) the same
  // verdict is only budget exhaustion, reported as kDegraded.
  const Circuit c = figure1_circuit();
  LabelOptions lo;
  lo.k = 3;

  const LabelResult certified = compute_labels(c, 1, lo);
  EXPECT_FALSE(certified.feasible);
  EXPECT_EQ(certified.status, Status::kOk);

  LabelOptions capped = lo;
  capped.use_pld = false;
  capped.sweep_budget = 1;
  const LabelResult budgeted = compute_labels(c, 1, capped);
  EXPECT_FALSE(budgeted.feasible);
  EXPECT_EQ(budgeted.status, Status::kDegraded);
}

TEST(Budget, UnlimitedBudgetIsBitIdentical) {
  const Circuit c = figure1_circuit();
  FlowOptions plain;
  plain.k = 3;
  FlowOptions budgeted = plain;
  budgeted.budget.set_deadline_after_ms(1000L * 3600);  // far-future deadline
  const FlowResult a = run_turbosyn(c, plain);
  const FlowResult b = run_turbosyn(c, budgeted);
  EXPECT_EQ(a.phi, b.phi);
  EXPECT_EQ(a.luts, b.luts);
  EXPECT_EQ(a.period, b.period);
  EXPECT_EQ(b.status, Status::kOk);
  expect_ok_reaches_phi(b);
  EXPECT_EQ(write_blif_string(a.mapped), write_blif_string(b.mapped));
}

TEST(ThreadPoolBudget, CancellationDrainsWithoutRunningRemainingItems) {
  ThreadPool pool(3);
  CancelToken token;
  RunBudget budget;
  budget.set_cancel_token(&token);
  std::atomic<int> executed{0};
  constexpr std::size_t kItems = 100000;
  pool.for_each(
      kItems,
      [&](std::size_t) {
        // The first executed item cancels; participants observe the token between
        // items, so almost everything is skipped (but still counted — the
        // call returns normally).
        executed.fetch_add(1, std::memory_order_relaxed);
        token.cancel();
      },
      /*max_workers=*/0, &budget);
  // Every participant can run at most the item it already claimed before
  // observing the cancellation.
  EXPECT_GE(executed.load(), 1);
  EXPECT_LE(executed.load(), pool.num_workers() + 1);
}

}  // namespace
}  // namespace turbosyn
