#include "common/rng.h"

#include <numeric>
#include <utility>

namespace gnndm {

void Rng::SampleWithoutReplacement(uint32_t n, uint32_t k,
                                   std::vector<uint32_t>& out,
                                   std::vector<uint8_t>& mark) {
  if (k >= n) {
    out.resize(n);
    std::iota(out.begin(), out.end(), 0u);
    return;
  }
  DrawDistinct(n, k, out, mark, [](uint32_t /*pick*/) {});
}

}  // namespace gnndm
