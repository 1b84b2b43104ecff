// Fixture: raw-lock, reduced from ThreadPool at
// 384f28f^:src/common/thread_pool.h:45. A bare std::mutex and its
// condition variables are invisible to Thread Safety Analysis and the
// lock-order graph; 384f28f moved the pool onto the annotated Mutex and
// CondVar wrappers of common/annotations.h.
#include <condition_variable>
#include <cstddef>
#include <mutex>

namespace gnndm {

class TaskPool {
 public:
  void Finish() {
    std::lock_guard<std::mutex> lock(mu_);  // expect: flagged (x2)
    in_flight_ = 0;
  }

 private:
  std::mutex mu_;                      // expect: flagged
  std::condition_variable done_cv_;    // expect: flagged
  size_t in_flight_ = 0;
};

}  // namespace gnndm
