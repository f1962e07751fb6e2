#include "base/thread_pool.hpp"

#include <algorithm>

#include "base/check.hpp"
#include "base/run_budget.hpp"

namespace turbosyn {

ThreadPool::ThreadPool(int num_workers) {
  if (num_workers <= 0) {
    // At least one worker even on a single-core host, so that callers asking
    // for concurrency exercise the same code paths everywhere.
    num_workers = std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
  }
  threads_.reserve(static_cast<std::size_t>(num_workers));
  for (int id = 0; id < num_workers; ++id) {
    threads_.emplace_back([this, id] { worker_loop(id); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop(int id) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || (job_ != nullptr && job_seq_ != seen); });
    if (stop_) return;
    seen = job_seq_;
    Job* job = job_;
    if (id >= job->workers) continue;  // not a participant of this job
    // Register before releasing the lock: the caller keeps the job alive
    // until active_workers drops back to zero.
    ++job->active_workers;
    lock.unlock();
    const std::size_t completed = run_items(*job);
    lock.lock();
    job->remaining -= completed;
    --job->active_workers;
    if (job->remaining == 0 && job->active_workers == 0) done_cv_.notify_all();
  }
}

std::size_t ThreadPool::run_items(Job& job) {
  const auto& fn = *job.fn;
  std::size_t completed = 0;
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) break;
    // Cooperative cancellation: a fired interrupt skips the work but still
    // claims and counts the item, so the job drains deterministically.
    if (job.interrupt == nullptr || !job.interrupt->interrupted()) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!job.error) job.error = std::current_exception();
      }
    }
    ++completed;
  }
  return completed;
}

void ThreadPool::for_each(std::size_t n, const std::function<void(std::size_t)>& fn,
                          int max_workers, const RunBudget* interrupt) {
  if (n == 0) return;
  std::lock_guard<std::mutex> call_lock(call_mutex_);
  int workers = max_workers <= 0 ? num_workers() : std::min(max_workers, num_workers());
  workers = static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(workers), n - 1));
  if (workers == 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (interrupt != nullptr && interrupt->interrupted()) break;
      fn(i);
    }
    return;
  }

  Job job;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.fn = &fn;
    job.n = n;
    job.workers = workers;
    job.remaining = n;
    job.interrupt = interrupt;
    job_ = &job;
    ++job_seq_;
  }
  work_cv_.notify_all();

  const std::size_t completed = run_items(job);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    job.remaining -= completed;
    done_cv_.wait(lock, [&] { return job.remaining == 0 && job.active_workers == 0; });
    job_ = nullptr;
    error = job.error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace turbosyn
