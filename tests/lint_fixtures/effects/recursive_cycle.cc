// Fixture: mutual recursion — the effect fixpoint propagates around the
// cycle without diverging, and the contract walk's visited set keeps the
// traversal finite while still reporting the allocation inside it.
#include <cstdint>
#include <vector>

namespace gnndm {

uint64_t OddSum(uint32_t n);

uint64_t EvenSum(uint32_t n) {
  if (n == 0) return 0;
  return n + OddSum(n - 1);
}

uint64_t OddSum(uint32_t n) {
  if (n == 0) return 0;
  std::vector<uint32_t> spill(n);  // expect: flagged through the cycle
  spill[0] = n;
  return spill[0] + EvenSum(n - 1);
}

// gnndm-hot
uint64_t HotDriver(uint32_t n) {
  uint64_t total = 0;
  for (uint32_t i = 0; i < n; ++i) {
    total += EvenSum(i);  // expect: hot-path-alloc via the cycle
  }
  return total;
}

}  // namespace gnndm
