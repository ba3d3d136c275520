#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "common/logging.h"

namespace sparkline {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    sl::MutexLock lock(&mu_);
    shutdown_ = true;
  }
  task_ready_.NotifyAll();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    sl::MutexLock lock(&mu_);
    SL_CHECK(!shutdown_) << "Submit after shutdown";
    queue_.push_back(std::move(task));
  }
  task_ready_.NotifyOne();
}

void ThreadPool::WaitIdle() {
  sl::MutexLock lock(&mu_);
  while (!(queue_.empty() && active_ == 0)) all_done_.Wait(&mu_);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      sl::MutexLock lock(&mu_);
      while (!(shutdown_ || !queue_.empty())) task_ready_.Wait(&mu_);
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    // Last-resort guard: tasks must report errors via Status, but a task that
    // does throw (third-party code, injected faults) must not take the whole
    // process down via std::terminate — it costs one task, not the pool. The
    // stage runner has its own guard that converts throws into a failed
    // query; this one only protects foreign Submit() users and the pool's
    // bookkeeping below (active_ must be decremented or WaitIdle hangs).
    try {
      task();
    } catch (const std::exception& e) {
      SL_LOG_ERROR << "thread-pool task threw '" << e.what()
                   << "'; tasks must report errors via Status";
    } catch (...) {
      SL_LOG_ERROR << "thread-pool task threw a non-std::exception; "
                      "tasks must report errors via Status";
    }
    {
      sl::MutexLock lock(&mu_);
      --active_;
      if (queue_.empty() && active_ == 0) all_done_.NotifyAll();
    }
  }
}

ThreadPool* ExecutorPool() {
  // Never destroyed: queries may still be running on other threads while
  // static destructors run at exit, and the workers must outlive them.
  static ThreadPool* const pool = new ThreadPool(
      std::max<size_t>(1, std::thread::hardware_concurrency()));
  return pool;
}

namespace {

/// One ParallelFor call. The caller and every helper the pool runs for it
/// share this block, so a helper that starts after the caller returned
/// touches only the heap. `fn` lives in the caller's frame; it is called
/// only by whoever claimed an index below `n`, and the caller does not
/// return before every claimed index has finished.
struct TaskGroup {
  TaskGroup(ThreadPool* pool, size_t n, const std::function<void(size_t)>* fn)
      : pool(pool), n(n), fn(fn) {}

  ThreadPool* const pool;
  const size_t n;
  const std::function<void(size_t)>* const fn;
  std::atomic<size_t> next{0};      // next unclaimed index
  std::atomic<size_t> finished{0};  // tasks run to completion
  std::atomic<size_t> helpers{0};   // pool workers woken for this group
  sl::Mutex mu;  // orders the last finisher's notify after the caller's check
  sl::CondVar all_finished;
};

void RunTask(TaskGroup* group, size_t i) {
  // fn(i) throwing must still count the task as finished, or the caller
  // waits forever.
  try {
    (*group->fn)(i);
  } catch (const std::exception& e) {
    SL_LOG_ERROR << "ParallelFor task " << i << " threw '" << e.what()
                 << "'; treating as completed (errors belong in Status)";
  } catch (...) {
    SL_LOG_ERROR << "ParallelFor task " << i
                 << " threw a non-std::exception; treating as completed";
  }
  if (group->finished.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      group->n) {
    sl::MutexLock lock(&group->mu);
    group->all_finished.NotifyAll();
  }
}

/// Claims and runs tasks until none is left unclaimed.
void Drain(TaskGroup* group) {
  for (;;) {
    const size_t i = group->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= group->n) return;
    RunTask(group, i);
  }
}

void RunHelper(const std::shared_ptr<TaskGroup>& group);

/// Wakes one more pool worker for `group` while two or more of its tasks
/// are unclaimed (one for the waker, one for the woken) and the pool has a
/// worker that is not helping it yet.
void WakeHelper(const std::shared_ptr<TaskGroup>& group) {
  if (group->next.load(std::memory_order_relaxed) + 2 > group->n) return;
  if (group->helpers.fetch_add(1, std::memory_order_relaxed) >=
      group->pool->num_threads()) {
    return;
  }
  group->pool->Submit([group] { RunHelper(group); });
}

void RunHelper(const std::shared_ptr<TaskGroup>& group) {
  WakeHelper(group);
  Drain(group.get());
}

}  // namespace

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (pool == nullptr || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto group = std::make_shared<TaskGroup>(pool, n, &fn);
  WakeHelper(group);
  Drain(group.get());
  // Every index is claimed; the ones still running are on threads that are
  // already executing them, so this wait cannot depend on a queued helper.
  TaskGroup* g = group.get();
  sl::MutexLock lock(&g->mu);
  while (g->finished.load(std::memory_order_acquire) != n) {
    g->all_finished.Wait(&g->mu);
  }
}

}  // namespace sparkline
