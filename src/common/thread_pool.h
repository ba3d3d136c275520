// Fixed-size worker pools: the process-wide executor pool that runs the
// per-partition tasks of every query stage, and the serving tier's query
// threads.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_safety.h"

namespace sparkline {

/// \brief A fixed-size thread pool with a simple FIFO queue.
///
/// Tasks must not throw (all sparkline code reports errors via Status); a
/// task that does costs itself, not the pool.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task) SL_EXCLUDES(mu_);

  /// Blocks until all submitted tasks have finished.
  void WaitIdle() SL_EXCLUDES(mu_);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop() SL_EXCLUDES(mu_);

  sl::Mutex mu_;
  sl::CondVar task_ready_;
  sl::CondVar all_done_;
  std::deque<std::function<void()>> queue_ SL_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
  size_t active_ SL_GUARDED_BY(mu_) = 0;
  bool shutdown_ SL_GUARDED_BY(mu_) = false;
};

/// \brief The process-wide executor pool: `hardware_concurrency()` workers
/// (at least 1), started on first use and kept for the life of the process.
/// Every query's stages run on it; the simulated cluster's executor count
/// (`sparkline.executors`) sets partitions, not threads.
ThreadPool* ExecutorPool();

/// \brief Runs fn(0) .. fn(n-1) as one task group and waits for completion.
///
/// The calling thread claims and runs tasks of its own group. It wakes at
/// most one pool worker; each helper that still finds two or more unclaimed
/// tasks wakes one more, so a group the caller finishes alone never waits
/// for a worker. The caller waits only for tasks that are already running,
/// which keeps concurrent groups (and groups started from inside a pool task)
/// free of deadlock on a saturated pool. A helper that starts after the call
/// returned touches only the group's heap state, never the caller's frame.
///
/// `fn` must be safe to call concurrently for distinct indices. Which thread
/// runs a task is not observable in the metrics: per-task CPU time feeds the
/// simulated critical-path model, not the number of physical threads.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace sparkline
