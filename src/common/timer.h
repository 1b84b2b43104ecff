#ifndef GNNDM_COMMON_TIMER_H_
#define GNNDM_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace gnndm {

/// Monotonic wall-clock stopwatch for measuring real CPU-side work
/// (partitioning, sampling, NN compute).
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double Millis() const { return Seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace gnndm

#endif  // GNNDM_COMMON_TIMER_H_
