// Fixture: overload sets resolve conservatively — a call site naming an
// overloaded method edges to every overload with that name, so the
// allocating convenience overload poisons the set even when the caller
// picks the scratch variant. The contract walk reports the allocation
// with the chain that reached it.
#include <cstdint>
#include <vector>

namespace gnndm {

class Picker {
 public:
  // Allocating convenience overload.
  std::vector<uint32_t> Pick(uint32_t n) {
    std::vector<uint32_t> out(n);  // expect: flagged through the hot caller
    return out;
  }
  // Scratch overload: allocation-free once warm.
  void Pick(uint32_t n, std::vector<uint32_t>& out) {
    out.clear();
    for (uint32_t i = 0; i < n; ++i) out.push_back(i);
  }
};

// gnndm-hot
uint64_t HotLoop(Picker& p, std::vector<uint32_t>& scratch) {
  uint64_t sum = 0;
  for (uint32_t i = 0; i < 64; ++i) {
    p.Pick(i, scratch);  // expect: hot-path-alloc via the overload set
    for (uint32_t v : scratch) sum += v;
  }
  return sum;
}

}  // namespace gnndm
