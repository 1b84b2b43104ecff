#include "tensor/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "common/status.h"

namespace gnndm {

// Per-tier tables, each defined by simd_<tier>.cc from the shared kernel
// source. Which ones exist is a build-time property (GNNDM_SIMD_BUILD_*
// comes from src/tensor/CMakeLists.txt); whether they may run is a
// runtime property (common/cpu_features.h).
namespace simd_scalar {
const SimdKernels* GetKernels();
}
#if defined(GNNDM_SIMD_BUILD_AVX2)
namespace simd_avx2 {
const SimdKernels* GetKernels();
}
#endif
#if defined(GNNDM_SIMD_BUILD_AVX512)
namespace simd_avx512 {
const SimdKernels* GetKernels();
}
#endif
#if defined(GNNDM_SIMD_BUILD_NEON)
namespace simd_neon {
const SimdKernels* GetKernels();
}
#endif

namespace {

/// Table for a compiled-in tier, nullptr when the tier is not part of
/// this binary.
const SimdKernels* TableFor(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return simd_scalar::GetKernels();
    case SimdTier::kAvx2:
#if defined(GNNDM_SIMD_BUILD_AVX2)
      return simd_avx2::GetKernels();
#else
      return nullptr;
#endif
    case SimdTier::kAvx512:
#if defined(GNNDM_SIMD_BUILD_AVX512)
      return simd_avx512::GetKernels();
#else
      return nullptr;
#endif
    case SimdTier::kNeon:
#if defined(GNNDM_SIMD_BUILD_NEON)
      return simd_neon::GetKernels();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

bool CpuSupports(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return true;
    case SimdTier::kAvx2:
      return CpuHasAvx2Fma();
    case SimdTier::kAvx512:
      return CpuHasAvx512();
    case SimdTier::kNeon:
      return CpuHasNeon();
  }
  return false;
}

SimdTier ResolveAuto() {
  // Best compiled-in tier the CPU executes; scalar is always both.
  for (SimdTier t : {SimdTier::kAvx512, SimdTier::kAvx2, SimdTier::kNeon}) {
    if (TableFor(t) != nullptr && CpuSupports(t)) return t;
  }
  return SimdTier::kScalar;
}

// The active table + tier. Release/acquire so a table published by a
// startup SetSimdTier is fully visible to kernel callers on any thread;
// mid-run swaps are documented unsupported (like SetComputeThreads).
std::atomic<const SimdKernels*> g_active{nullptr};
std::atomic<uint8_t> g_active_tier{0};

void Activate(SimdTier tier) {
  g_active_tier.store(static_cast<uint8_t>(tier), std::memory_order_relaxed);
  g_active.store(TableFor(tier), std::memory_order_release);
}

/// First-use resolution from the GNNDM_SIMD environment variable. An
/// unknown or unsupported value falls back to auto so a typo'd
/// environment cannot silently crash training — the fallback is loud on
/// stderr instead.
void InitFromEnvironment() {
  std::string choice = "auto";
  if (const char* env = std::getenv("GNNDM_SIMD")) choice = env;
  if (!SetSimdTierByName(choice).ok()) {
    std::fprintf(stderr,
                 "GNNDM_SIMD=%s is not available in this build/CPU; "
                 "using auto\n",
                 choice.c_str());
    Activate(ResolveAuto());
  }
}

}  // namespace

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kAvx512:
      return "avx512";
    case SimdTier::kNeon:
      return "neon";
  }
  return "unknown";
}

const std::vector<SimdTier>& CompiledSimdTiers() {
  static const std::vector<SimdTier> kTiers = [] {
    std::vector<SimdTier> tiers = {SimdTier::kScalar};
    for (SimdTier t : {SimdTier::kAvx2, SimdTier::kAvx512, SimdTier::kNeon}) {
      if (TableFor(t) != nullptr) tiers.push_back(t);
    }
    return tiers;
  }();
  return kTiers;
}

const SimdKernels& Simd() {
  const SimdKernels* table = g_active.load(std::memory_order_acquire);
  if (table != nullptr) return *table;
  // Thread-safe once: the winner of the static-init race resolves the
  // tier; everyone else blocks until the table is published.
  static const bool kInitialized = [] {
    InitFromEnvironment();
    return true;
  }();
  (void)kInitialized;
  return *g_active.load(std::memory_order_acquire);
}

SimdTier ActiveSimdTier() {
  Simd();  // force first-use resolution
  return static_cast<SimdTier>(
      g_active_tier.load(std::memory_order_relaxed));
}

Status SetSimdTier(SimdTier tier) {
  if (TableFor(tier) == nullptr) {
    return Status::InvalidArgument(
        std::string("SIMD tier '") + SimdTierName(tier) +
        "' is not compiled into this binary");
  }
  if (!CpuSupports(tier)) {
    return Status::FailedPrecondition(
        std::string("this CPU does not execute SIMD tier '") +
        SimdTierName(tier) + "'");
  }
  Activate(tier);
  return Status::Ok();
}

Status SetSimdTierByName(const std::string& name) {
  if (name == "auto") {
    Activate(ResolveAuto());
    return Status::Ok();
  }
  for (SimdTier t : {SimdTier::kScalar, SimdTier::kAvx2, SimdTier::kAvx512,
                     SimdTier::kNeon}) {
    if (name == SimdTierName(t)) return SetSimdTier(t);
  }
  return Status::InvalidArgument(
      "unknown SIMD tier '" + name +
      "'; expected auto, scalar, avx2, avx512, or neon");
}

}  // namespace gnndm
