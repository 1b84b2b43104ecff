#include "common/thread_pool.h"

#include <algorithm>

#include "common/logging.h"
#include "common/telemetry.h"
#include "common/telemetry_names.h"

namespace gnndm {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  done_cv_.NotifyAll();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (telemetry::Enabled()) telemetry::GetCounter(telemetry_names::kPoolTasks).Increment();
  {
    MutexLock lock(mu_);
    GNNDM_CHECK(!stop_) << "ThreadPool::Submit after shutdown began";
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_cv_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (in_flight_ != 0 && !stop_) done_cv_.Wait(mu_);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) work_cv_.Wait(mu_);
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      MutexLock lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) done_cv_.NotifyAll();
    }
  }
}

}  // namespace gnndm
