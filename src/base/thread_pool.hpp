#pragma once
// Thread pool for a handful of coarse, independent items: the circuits of a
// batch (service/batch_runner). for_each() hands items out through one shared
// atomic cursor; claiming an item is one relaxed fetch_add, with no per-item
// allocation or locking.
//
// Workers are parked on a condition variable between jobs; the calling
// thread always participates, so a pool of W workers runs W+1 participants.
// for_each() calls are serialized (nested/concurrent calls from inside a
// worker would deadlock and are not supported).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace turbosyn {

class RunBudget;

class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads (0 = hardware concurrency - 1 but
  /// at least 1, so that the participating caller brings the total to the
  /// core count).
  explicit ThreadPool(int num_workers = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(threads_.size()); }

  /// Runs fn(item) for every item in [0, n), blocking until all items
  /// completed. The calling thread participates; `max_workers` (0 = all)
  /// bounds how many pool workers join in. The first exception thrown by an
  /// item is rethrown here after every item finished. `interrupt` (optional)
  /// is polled between items: once it reports cancellation or an expired
  /// deadline, the remaining items are skipped (still counted, so the job
  /// drains deterministically and for_each returns promptly).
  void for_each(std::size_t n, const std::function<void(std::size_t item)>& fn,
                int max_workers = 0, const RunBudget* interrupt = nullptr);

  /// Process-wide shared pool, created on first use and sized so that the
  /// caller plus the workers match the hardware concurrency.
  static ThreadPool& global();

 private:
  /// One for_each() invocation; lives on the caller's stack. The caller does
  /// not return until remaining == 0 and active_workers == 0, so workers that
  /// registered under the mutex may use the job without further locking.
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> next{0};  // the shared item cursor
    std::size_t n = 0;
    int workers = 0;            // pool workers that join this job
    std::size_t remaining = 0;  // items not yet completed
    int active_workers = 0;     // workers currently inside run_items()
    std::exception_ptr error;
    const RunBudget* interrupt = nullptr;  // skip items once it fires
  };

  void worker_loop(int id);
  /// Claims items until the cursor passes n; returns how many it completed.
  std::size_t run_items(Job& job);

  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers: a new job was published
  std::condition_variable done_cv_;  // caller: the job may have completed
  std::uint64_t job_seq_ = 0;
  Job* job_ = nullptr;  // guarded by mutex_
  bool stop_ = false;

  std::mutex call_mutex_;  // serializes for_each()
  std::vector<std::thread> threads_;
};

}  // namespace turbosyn
