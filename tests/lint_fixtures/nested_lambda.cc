// Fixture: hot-path-alloc must see through nested lambdas — an
// allocation inside a lambda defined inside a ParallelFor body is still
// reached from the ParallelFor body, while the same code outside any parallel
// or hot-loop context is fine.
#include <cstddef>
#include <vector>

#include "common/parallel_for.h"

namespace gnndm {

void NestedLambdaInParallel(size_t n) {
  ParallelFor(n, 16, [&](size_t b, size_t e) {
    auto inner = [&](size_t i) {
      std::vector<int> tmp(4);  // expect: hot-path-alloc
      tmp[0] = static_cast<int>(i);
    };
    for (size_t i = b; i < e; ++i) inner(i);
  });
}

void NestedLambdaOutsideParallel(size_t n) {
  auto outer = [&](size_t i) {
    std::vector<int> fine(4);  // expect: clean (no parallel, no hot loop)
    fine[0] = static_cast<int>(i);
  };
  for (size_t i = 0; i < n; ++i) outer(i);
}

}  // namespace gnndm
