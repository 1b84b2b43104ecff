// AVX2 tier: one __m256 is the whole 8-wide virtual lane
// (simd_avx2_lanes.inc). Compiled with -mavx2 -mfma (see
// src/tensor/CMakeLists.txt) and only ever entered after cpuid confirms
// both.
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "tensor/simd.h"

namespace gnndm {
namespace simd_avx2 {

#include "tensor/simd_avx2_lanes.inc"

#define GNNDM_SIMD_TIER_STRING "avx2"
#include "tensor/simd_kernels.inc"
#undef GNNDM_SIMD_TIER_STRING

}  // namespace simd_avx2
}  // namespace gnndm

#endif  // x86
