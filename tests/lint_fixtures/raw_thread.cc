// Fixture: raw-thread. Outside the allowlisted concurrency surfaces, work
// goes through ThreadPool or ParallelFor, never a std::thread of its own.
// Minimal case: no commit has fixed one.
#include <thread>

namespace gnndm {

void RunDetached(void (*fn)()) {
  std::thread worker(fn);  // expect: flagged
  worker.join();
}

}  // namespace gnndm
