#include "common/rng.h"

#include <numeric>
#include <utility>

namespace gnndm {

void Rng::SampleWithoutReplacement(uint32_t n, uint32_t k,
                                   std::vector<uint32_t>& out,
                                   std::vector<uint8_t>& mark) {
  out.clear();
  if (k >= n) {
    out.resize(n);
    std::iota(out.begin(), out.end(), 0u);
    return;
  }
  if (k * 3 < n) {
    // Floyd's algorithm, expected O(k) draws. The chosen set is exactly
    // the picks emitted so far, marked in `mark`. `j` can never already
    // be chosen: every earlier pick is below it.
    if (mark.size() < n) mark.resize(n, 0);
    out.reserve(k);
    for (uint32_t j = n - k; j < n; ++j) {
      const uint32_t t = static_cast<uint32_t>(UniformInt(j + 1));
      const uint32_t pick = mark[t] == 0 ? t : j;
      mark[pick] = 1;
      out.push_back(pick);
    }
    for (uint32_t pick : out) mark[pick] = 0;
    return;
  }
  // Dense case: partial Fisher–Yates over an index array.
  out.resize(n);
  std::iota(out.begin(), out.end(), 0u);
  for (uint32_t i = 0; i < k; ++i) {
    uint32_t j = i + static_cast<uint32_t>(UniformInt(n - i));
    std::swap(out[i], out[j]);
  }
  out.resize(k);
}

}  // namespace gnndm
