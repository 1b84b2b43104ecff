// Fixture: thread-id-in-stats. A thread id is a scheduling artifact;
// keying a statistic on it makes the stats differ run to run. Minimal
// case: no commit has fixed one.
#include <cstddef>
#include <functional>
#include <thread>

namespace gnndm {

size_t StatsShard(size_t shards) {
  const auto me = std::this_thread::get_id();  // expect: flagged
  return std::hash<decltype(me)>{}(me) % shards;
}

}  // namespace gnndm
