#ifndef GNNDM_COMMON_RNG_H_
#define GNNDM_COMMON_RNG_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace gnndm {

/// Deterministic pseudo-random number generator (xoshiro256** seeded via
/// SplitMix64). Every stochastic component in gnndm takes an explicit seed
/// so that all experiments are reproducible bit-for-bit across runs.
///
/// Not thread-safe; use one Rng per thread (see Fork()).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  /// Re-seeds the generator deterministically from `seed`.
  void Seed(uint64_t seed) {
    // SplitMix64 expansion of the scalar seed into the 256-bit state.
    uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      s = z ^ (z >> 31);
    }
  }

  /// Next raw 64-bit value (xoshiro256**).
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses Lemire's
  /// multiply-shift rejection method to avoid modulo bias.
  uint64_t UniformInt(uint64_t bound) {
    assert(bound > 0);
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t low = static_cast<uint64_t>(m);
    if (low < bound) {
      uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double UniformReal() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Standard normal via Box–Muller.
  double Normal() {
    if (has_cached_normal_) {
      has_cached_normal_ = false;
      return cached_normal_;
    }
    double u1 = UniformReal();
    double u2 = UniformReal();
    // Guard against log(0).
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * 3.14159265358979323846 * u2;
    cached_normal_ = r * std::sin(theta);
    has_cached_normal_ = true;
    return r * std::cos(theta);
  }

  /// Returns true with probability `p`.
  bool Bernoulli(double p) { return UniformReal() < p; }

  /// Fisher–Yates shuffle of `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = UniformInt(i);
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n), filling `out` — clearing
  /// any previous contents and reusing its capacity, so hot loops stay
  /// allocation-free once warm. The emitted order is unspecified. When
  /// k >= n fills `out` with all of [0, n).
  ///
  /// Floyd's algorithm when 3k < n, in O(k) expected time: membership
  /// is one lookup in `mark`, a caller-owned array that must be all zero
  /// on entry. It is grown to n if shorter, and it is all zero again on
  /// return: only the k picked entries are set, and they are cleared.
  /// Otherwise a partial Fisher–Yates over an O(n) index array, which
  /// leaves `mark` alone.
  void SampleWithoutReplacement(uint32_t n, uint32_t k,
                                std::vector<uint32_t>& out,
                                std::vector<uint8_t>& mark);

  /// The one definition of SampleWithoutReplacement's draws for k < n:
  /// the same draws and picks, with each pick also handed to `emit(pick)`
  /// as soon as it is drawn, so a caller consumes the picks in draw order
  /// without a second pass. `picks` ends holding them in that order
  /// (Floyd also clears `mark` through it; Fisher–Yates uses it as the
  /// index array). Defined here so that it inlines: a caller drawing from
  /// a local copy of its Rng then keeps the generator in registers, and
  /// the loops address the buffers through local pointers, which the
  /// byte stores into `mark` cannot alias.
  template <typename Emit>
  void DrawDistinct(uint32_t n, uint32_t k, std::vector<uint32_t>& picks,
                    std::vector<uint8_t>& mark, Emit&& emit) {
    assert(k < n);
    if (k * 3 < n) {
      // Floyd's algorithm, expected O(k) draws. The chosen set is exactly
      // the picks emitted so far, marked in `mark`. `j` can never already
      // be chosen: every earlier pick is below it.
      if (mark.size() < n) mark.resize(n, 0);
      picks.resize(k);
      uint8_t* marked = mark.data();
      uint32_t* out = picks.data();
      for (uint32_t i = 0; i < k; ++i) {
        const uint32_t j = n - k + i;
        const auto t = static_cast<uint32_t>(UniformInt(j + 1));
        const uint32_t pick = marked[t] == 0 ? t : j;
        marked[pick] = 1;
        out[i] = pick;
        emit(pick);
      }
      for (uint32_t i = 0; i < k; ++i) marked[out[i]] = 0;
      return;
    }
    // Dense case: partial Fisher–Yates over an index array. Position i is
    // final once step i has swapped into it.
    picks.resize(n);
    uint32_t* index = picks.data();
    std::iota(index, index + n, 0u);
    for (uint32_t i = 0; i < k; ++i) {
      const uint32_t j = i + static_cast<uint32_t>(UniformInt(n - i));
      std::swap(index[i], index[j]);
      emit(index[i]);
    }
    picks.resize(k);
  }

  /// Derives an independent child generator; use to hand deterministic
  /// streams to worker threads.
  Rng Fork() { return Rng(Next()); }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace gnndm

#endif  // GNNDM_COMMON_RNG_H_
