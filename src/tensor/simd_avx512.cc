// AVX-512 tier: the AVX2 tier's lane ops (one __m256 per virtual lane,
// simd_avx2_lanes.inc) for every kernel, plus a lane pair that is one
// __m512, which lets the GEMM tiles' register block grow to 8 rows x 32
// columns (simd_kernels.inc). Compiled with -mavx512f -mavx512vl on top
// of the AVX2 tier's -mavx2 -mfma (see src/tensor/CMakeLists.txt) and
// only ever entered after cpuid confirms all four.
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "tensor/simd.h"

namespace gnndm {
namespace simd_avx512 {

#include "tensor/simd_avx2_lanes.inc"

/// A lane pair: the low and high 256 bits of one zmm are two virtual
/// lanes, so each float still gets exactly the scalar tier's operations.
struct VP {
  __m512 v;
};

inline VP PLoad(const float* p) { return {_mm512_loadu_ps(p)}; }

inline void PStore(float* p, VP a) { _mm512_storeu_ps(p, a.v); }

inline VP PSplat(float x) { return {_mm512_set1_ps(x)}; }

/// Two roundings by contract — never _mm512_fmadd_ps.
inline VP PMulAcc(VP acc, VP a, VP b) {
  return {_mm512_add_ps(acc.v, _mm512_mul_ps(a.v, b.v))};
}

/// 8 rows x 2 pairs: 16 zmm accumulators, plus two B pairs and a
/// broadcast live per kk — 19 of the 32 zmm registers.
inline constexpr size_t kGemmRows = 8;
inline constexpr size_t kGemmPairs = 2;

#define GNNDM_SIMD_NATIVE_PAIR 1
#define GNNDM_SIMD_TIER_STRING "avx512"
#include "tensor/simd_kernels.inc"
#undef GNNDM_SIMD_TIER_STRING
#undef GNNDM_SIMD_NATIVE_PAIR

}  // namespace simd_avx512
}  // namespace gnndm

#endif  // x86
