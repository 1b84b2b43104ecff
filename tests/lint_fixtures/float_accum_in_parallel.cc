// Fixture: float-accum-in-parallel. Summing into one shared double from a
// ParallelFor body adds the chunks in completion order; a chunk-local
// partial and an element-wise update are both fine. Minimal case: no
// commit has fixed one.
#include <cstddef>
#include <vector>

#include "common/parallel_for.h"

namespace gnndm {

double SharedSum(const std::vector<double>& x, std::vector<double>& y) {
  double total = 0.0;
  ParallelFor(x.size(), 64, [&](size_t b, size_t e) {
    double partial = 0.0;
    for (size_t i = b; i < e; ++i) {
      partial += x[i];  // expect: clean (chunk-local)
      y[i] += x[i];     // expect: clean (element-wise)
    }
    total += partial;  // expect: flagged
  });
  return total;
}

}  // namespace gnndm
