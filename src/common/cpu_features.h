#ifndef GNNDM_COMMON_CPU_FEATURES_H_
#define GNNDM_COMMON_CPU_FEATURES_H_

namespace gnndm {

/// Runtime CPU feature detection for the SIMD kernel dispatch
/// (tensor/simd.h). Queried once at dispatch-table selection; the
/// answers never change over a process lifetime, so callers may cache
/// them freely.
///
/// This is the only file outside src/tensor/simd* allowed to touch
/// ISA-specific detection builtins (enforced by the simd-isolation lint
/// rule): everything above it asks about *tiers*, never about ISAs.

/// True when the CPU executes AVX2 *and* FMA instruction sets (the AVX2
/// kernel tier requires both — it is compiled with -mavx2 -mfma, so the
/// compiler may emit either anywhere in that translation unit).
bool CpuHasAvx2Fma();

/// True when the CPU executes everything the AVX-512 kernel tier is
/// compiled with: AVX-512F and AVX-512VL on top of AVX2 and FMA, with
/// the OS saving the zmm state (which the compiler's probe checks).
bool CpuHasAvx512();

/// True when the CPU executes NEON/ASIMD. Always true on AArch64, where
/// ASIMD is part of the base architecture; false elsewhere.
bool CpuHasNeon();

}  // namespace gnndm

#endif  // GNNDM_COMMON_CPU_FEATURES_H_
