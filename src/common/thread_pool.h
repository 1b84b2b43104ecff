#ifndef GNNDM_COMMON_THREAD_POOL_H_
#define GNNDM_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/annotations.h"

namespace gnndm {

/// Fixed-size worker pool under gnndm::ParallelFor (common/parallel_for.h),
/// which partitions an index range into chunks and submits them here.
/// Work items are plain std::function<void()>. The pool is intentionally
/// simple — GNN data preparation is embarrassingly parallel over batch
/// vertices.
///
/// Thread-safety: all shared state is guarded by `mu_` and the class is
/// annotated for Clang Thread Safety Analysis. Submitting after the
/// destructor has begun is a programming error and aborts.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1; 0 is clamped to 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for asynchronous execution. Aborts if called after
  /// destruction has begun (checked, not silently dropped: a task
  /// submitted during shutdown would never run).
  void Submit(std::function<void()> task) GNNDM_EXCLUDES(mu_);

  /// Blocks until every submitted task has finished. Also returns when
  /// the pool is shutting down, so a Wait() racing the destructor cannot
  /// hang on tasks that will never be drained.
  void Wait() GNNDM_EXCLUDES(mu_);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop() GNNDM_EXCLUDES(mu_);

  std::vector<std::thread> threads_;
  Mutex mu_{"pool.mu"};
  std::queue<std::function<void()>> queue_ GNNDM_GUARDED_BY(mu_);
  CondVar work_cv_;
  CondVar done_cv_;
  size_t in_flight_ GNNDM_GUARDED_BY(mu_) = 0;
  bool stop_ GNNDM_GUARDED_BY(mu_) = false;
};

}  // namespace gnndm

#endif  // GNNDM_COMMON_THREAD_POOL_H_
