// Fixture: backslash-continued macro definitions are preprocessor text.
// Their braces — even deliberately unbalanced ones across two #defines —
// must not desync the call graph, and allocations in macro bodies are
// not flagged. The hot function after the macros proves the tracker is
// still aligned: its loop allocation must be reported at the right line.
#include <cstddef>
#include <vector>

namespace gnndm {

#define GNNDM_FIXTURE_OPEN_LOOP(n)        \
  for (int fixture_i = 0; fixture_i < (n); ++fixture_i) { \
    auto* fixture_leak = new int(fixture_i);              \
    delete fixture_leak;

#define GNNDM_FIXTURE_CLOSE_LOOP }

void UsesUnbalancedMacros() {
  GNNDM_FIXTURE_OPEN_LOOP(3)
  GNNDM_FIXTURE_CLOSE_LOOP
}

// gnndm-hot
void HotAfterMacros(size_t n) {
  for (size_t i = 0; i < n; ++i) {
    std::vector<int> tmp(2);  // expect: hot-path-alloc
    tmp[0] = static_cast<int>(i);
  }
}

}  // namespace gnndm
