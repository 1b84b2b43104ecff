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

// Declaring, defining or qualifying a function of one of those names
// calls nothing of libc's.
namespace gnndm {

struct SimClock {
  double time() const;  // expect: clean
  static long clock();  // expect: clean
};

double SimClock::time() const { return 0.0; }  // expect: clean
unsigned rand(unsigned seed);                  // expect: clean
long Ticks() { return SimClock::clock(); }     // expect: clean

}  // namespace gnndm
