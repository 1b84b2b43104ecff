#include "common/cpu_features.h"

namespace gnndm {

// __builtin_cpu_supports reads CPUID once at startup (libgcc/compiler-rt
// cache the feature mask), so these are branch-on-a-global cheap. The
// builtin is only available for x86 targets; every other architecture
// answers from compile-time knowledge.

bool CpuHasAvx2Fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool CpuHasAvx512() {
#if defined(__x86_64__) || defined(__i386__)
  return CpuHasAvx2Fma() && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl");
#else
  return false;
#endif
}

bool CpuHasNeon() {
#if defined(__aarch64__)
  // ASIMD is mandatory in AArch64; no runtime probe needed.
  return true;
#else
  return false;
#endif
}

}  // namespace gnndm
