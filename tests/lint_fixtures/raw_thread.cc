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

// Naming the thread id type or asking for the core count starts no
// thread.
namespace gnndm {

unsigned Cores() {
  return std::thread::hardware_concurrency();  // expect: clean
}

std::thread::id Owner();  // expect: clean

}  // namespace gnndm
