// Fixture: hot-path-alloc walked from a ParallelFor body. The body itself
// allocates nothing; the std::vector is built one call below it, in a
// function with no annotation. The rule is walked from every ParallelFor
// body as a looped root, so the allocation is found with the chain that
// reaches it; a serial caller of the same helper stays clean.
#include <cstddef>
#include <vector>

#include "common/parallel_for.h"

namespace gnndm {

size_t Footprint(size_t v) {
  std::vector<size_t> scratch(v + 1);  // expect: flagged via the body
  scratch[v] = v;
  return scratch.size();
}

void ParallelFootprints(std::vector<size_t>& out) {
  ParallelFor(out.size(), 64, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) out[i] = Footprint(i);
  });
}

size_t SerialFootprint(size_t v) { return Footprint(v); }  // expect: clean

}  // namespace gnndm
