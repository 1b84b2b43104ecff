// Fixture: raw-rng. Outside src/common/rng.*, randomness comes from a
// seeded gnndm::Rng; libc's generator, the wall clock and
// std::random_device make a run unrepeatable. A member call named time()
// is not ::time(). Minimal case: no commit has fixed one.
#include <cstdlib>
#include <ctime>
#include <random>

namespace gnndm {

long Draw(const SimClock& sim) {
  std::srand(static_cast<unsigned>(time(nullptr)));  // expect: flagged (x2)
  std::random_device entropy;                        // expect: flagged
  return std::rand() + static_cast<long>(entropy()) +  // expect: flagged
         sim.time();                                   // expect: clean
}

}  // namespace gnndm
