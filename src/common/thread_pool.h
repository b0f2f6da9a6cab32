// Fixed-size worker pool for the topic-partitioned audit (Auditor::Audit
// makes one per call with one worker per partition).
//
// Design goals, in order: (1) deterministic shutdown — the destructor joins
// every worker, so a pool can live on the caller's stack; (2) a cheap
// Wait() barrier after each fan-out round; (3) no task-level futures —
// submitters that need results write into caller-owned slots, which keeps
// the hot path free of per-task allocation beyond the std::function itself.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace adlp {

class ThreadPool {
 public:
  /// Spawns `threads` workers (minimum 1).
  explicit ThreadPool(std::size_t threads) {
    if (threads == 0) threads = 1;
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  /// Joins all workers. Pending tasks are still executed first — a
  /// destructor that dropped queued work would turn every early return in a
  /// caller into a lost-result bug.
  ~ThreadPool() {
    {
      MutexLock lock(mu_);
      stopping_ = true;
    }
    work_cv_.NotifyAll();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t ThreadCount() const { return workers_.size(); }

  /// Enqueues a task. Tasks must not themselves call Submit/Wait on the
  /// same pool (no nested parallelism — a worker blocked in Wait() would
  /// deadlock the pool).
  void Submit(std::function<void()> task) EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      ++outstanding_;
      tasks_.push_back(std::move(task));
    }
    work_cv_.NotifyOne();
  }

  /// Blocks until every task submitted so far has finished. Exceptions
  /// escaping a task terminate (tasks are expected to be noexcept in
  /// spirit); audit tasks communicate failure through their result slots.
  void Wait() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (outstanding_ != 0) idle_cv_.Wait(lock);
  }

 private:
  void WorkerLoop() EXCLUDES(mu_) {
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(mu_);
        while (!stopping_ && tasks_.empty()) work_cv_.Wait(lock);
        if (tasks_.empty()) return;  // stopping and drained
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
      {
        MutexLock lock(mu_);
        --outstanding_;
      }
      idle_cv_.NotifyAll();
    }
  }

  Mutex mu_;
  CondVar work_cv_;
  CondVar idle_cv_;
  std::deque<std::function<void()>> tasks_ GUARDED_BY(mu_);
  std::size_t outstanding_ GUARDED_BY(mu_) = 0;
  bool stopping_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace adlp
