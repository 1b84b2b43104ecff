// Fixture: bad-suppression. A suppression must name a known rule and say
// why; a malformed one, an unknown rule and a missing justification are
// each a finding, and none of them suppresses anything. Minimal case: no
// commit has fixed one.
#include <cstdlib>

namespace gnndm {

int Draws() {
  // gnndm-lint: suppress raw-rng because the grammar is wrong
  int a = std::rand();
  // gnndm-lint: suppress(no-such-rule): names a rule that does not exist
  int b = std::rand();
  // gnndm-lint: suppress(raw-rng):
  int c = std::rand();
  return a + b + c;
}

}  // namespace gnndm
