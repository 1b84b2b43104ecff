#ifndef GNNDM_TENSOR_SIMD_H_
#define GNNDM_TENSOR_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace gnndm {

/// Runtime-dispatched SIMD kernel layer (DESIGN.md §13).
///
/// Every hot float kernel in the repo bottoms out in one of the function
/// pointers below. The pointers are filled per ISA tier — scalar
/// (always), AVX2+FMA and AVX-512 (x86-64), NEON (AArch64) — from a
/// single kernel source (simd_kernels.inc) written against a fixed
/// *8-wide virtual lane* vector type. The scalar tier executes the
/// identical lane semantics with a float[8], so every tier produces
/// byte-identical outputs by construction:
///
///  - elementwise ops and the j-vectorized GEMM tiles touch each output
///    element with exactly the same sequence of individually-rounded
///    mul/add operations at every width (vectorization only changes
///    which *elements* are in flight together, never the per-element
///    order — AVX-512's 16-float registers carry two virtual lanes each
///    in the GEMM tiles and nowhere else);
///  - horizontal reductions (`dot`) accumulate element i into virtual
///    lane i%8 in ascending order, collapse the 8 lanes through the
///    canonical tree ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), then add
///    the tail elements in ascending order — the same fixed shape on
///    every tier and at every thread count;
///  - nothing in any tier uses fused multiply-add or any other
///    reassociating/contracting form (the build sets -ffp-contract=off
///    repo-wide so scalar code cannot silently fuse either).
///
/// The active tier is resolved once, on first use: the GNNDM_SIMD
/// environment variable ("auto", "scalar", "avx2", "avx512", "neon")
/// seeds the choice, `--simd=` on the CLIs overrides it via
/// SetSimdTierByName, and "auto" picks the best tier this binary was
/// compiled with that the CPU actually executes (common/cpu_features.h):
/// avx512, then avx2, then neon, then scalar.

enum class SimdTier : uint8_t {
  kScalar = 0,  // portable float[8] virtual lanes; always compiled in
  kAvx2 = 1,    // AVX2+FMA TU (-mavx2 -mfma); x86-64 builds only
  kNeon = 2,    // NEON/ASIMD TU; AArch64 builds only
  kAvx512 = 3,  // AVX-512F/VL TU (AVX2 flags plus -mavx512f -mavx512vl);
                // x86-64 builds only
};

/// Lane width of the virtual vector every tier implements. Part of the
/// determinism contract: changing it changes reduction trees and
/// therefore bits.
inline constexpr size_t kSimdLanes = 8;

/// The per-tier kernel table. All buffers are dense row-major float32;
/// `n`/`d` counts are in elements. Raw pointers (not Tensor) keep this
/// layer free of any dependency above common/, so nn/ and transfer/ can
/// share the same primitives without layering violations.
struct SimdKernels {
  const char* name;  // tier name, e.g. "avx2"

  // --- flat elementwise ranges [0, n) ---------------------------------
  /// y[i] += alpha * x[i].
  void (*axpy)(size_t n, float alpha, const float* x, float* y);
  /// x[i] *= alpha.
  void (*scale)(size_t n, float alpha, float* x);
  /// x[i] = (0 > x[i]) ? 0 : x[i]  (NaN passes through, like the scalar
  /// ternary — vmaxps/fmax semantics with the zero operand first).
  void (*relu)(size_t n, float* x);
  /// g[i] = (act[i] > 0) ? g[i] : 0.
  void (*relu_bwd)(size_t n, const float* act, float* g);
  /// dst[i] = src[i] (buffers must not overlap).
  void (*copy)(size_t n, const float* src, float* dst);
  /// Canonical virtual-lane dot product: lane i%8 accumulates x[i]*y[i]
  /// ascending, fixed 8-lane tree reduction, then the <8 tail elements
  /// ascending. THE deterministic horizontal-reduction primitive.
  float (*dot)(size_t n, const float* x, const float* y);

  // --- sparse-aggregation row primitives ------------------------------
  /// orow[f] += sum over e in [0,cnt) of src[r(idx[e])*d + f], edges in
  /// ascending e order per element (f-vectorized), where r(i) = map[i],
  /// or i when `map` is null (a layer reading rows in place through a
  /// map of row ids; nn/row_view.h).
  void (*gather_rows_add)(size_t d, const float* src, const uint32_t* map,
                          const uint32_t* idx, size_t cnt, float* orow);
  /// For e in [0,cnt): t = idx[e]; if lo <= t < hi:
  ///   dsrc[t*d + f] += alpha * grow[f].
  /// The [lo,hi) filter is the destination-partitioned backward shard.
  void (*scatter_rows_axpy)(size_t d, const float* grow, float alpha,
                            const uint32_t* idx, size_t cnt, uint32_t lo,
                            uint32_t hi, float* dsrc);

  // --- register-blocked GEMM tiles ------------------------------------
  /// out[i, j] += sum_{kk<k} a[i*lda + kk] * b[kk*ldb + j] for the tile
  /// i in [i0,i1), j in [j0,j1). Accumulation per element is ascending
  /// kk with individually rounded mul/add at every width.
  void (*gemm_tile)(const float* a, size_t lda, const float* b, size_t ldb,
                    float* out, size_t ldo, size_t i0, size_t i1, size_t j0,
                    size_t j1, size_t k);
  /// Same contraction with A transposed: a is [k x m] row-major and
  /// out[i, j] += sum_{kk<k} a[kk*lda + i] * b[kk*ldb + j].
  void (*gemm_tile_ta)(const float* a, size_t lda, const float* b,
                       size_t ldb, float* out, size_t ldo, size_t i0,
                       size_t i1, size_t j0, size_t j1, size_t k);
  /// Packs the transpose of row-major b [n x k] into bt [k x n]
  /// (bt[kk*n + j] = b[j*ldb + kk]) for rows j in [j0,j1). Pure copies —
  /// bit-exact trivially — blocked so both sides stream cache lines.
  void (*pack_b_transpose)(const float* b, size_t ldb, size_t j0, size_t j1,
                           size_t k, size_t n, float* bt);
};

/// Name of a tier ("scalar", "avx2", "avx512", "neon").
const char* SimdTierName(SimdTier tier);

/// The tiers this binary was compiled with, scalar first. A tier being
/// compiled in does not imply the CPU can run it (see SetSimdTier).
const std::vector<SimdTier>& CompiledSimdTiers();

/// The active kernel table. First call resolves the tier from
/// GNNDM_SIMD (default "auto"); subsequent calls are a single load.
const SimdKernels& Simd();

/// Tier behind the table Simd() currently returns.
SimdTier ActiveSimdTier();

/// Forces the active tier. Fails (and leaves the tier unchanged) if the
/// tier was not compiled into this binary or the CPU cannot execute it.
/// Not safe to call concurrently with running kernels — call it at
/// startup or between test cases, like SetComputeThreads.
Status SetSimdTier(SimdTier tier);

/// Parses "auto" / "scalar" / "avx2" / "avx512" / "neon" and forces that
/// tier ("auto" re-resolves the best supported one). Backs the --simd
/// flag.
Status SetSimdTierByName(const std::string& name);

}  // namespace gnndm

#endif  // GNNDM_TENSOR_SIMD_H_
