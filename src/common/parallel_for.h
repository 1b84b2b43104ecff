#ifndef GNNDM_COMMON_PARALLEL_FOR_H_
#define GNNDM_COMMON_PARALLEL_FOR_H_

#include <cstddef>

#include "common/function_ref.h"

namespace gnndm {

/// Work-sharing parallel-loop layer used by every hot compute kernel
/// (dense matmul, sparse aggregation, feature gather). Built on the
/// annotated ThreadPool: one process-wide pool is created lazily and
/// reused across calls, the calling thread always participates, and
/// everything degrades to a plain serial loop when the configured thread
/// count is <= 1 — so single-threaded runs pay nothing and stay trivially
/// deterministic.
///
/// Determinism contract: these primitives only decide *which thread* runs
/// which contiguous index range; they never reorder or split the work a
/// kernel does per element. A kernel that keeps its per-element
/// accumulation order independent of the partitioning (each output
/// element written by exactly one task, inner reduction order fixed)
/// therefore produces byte-identical results at any thread count. All
/// kernels in src/tensor and src/nn are written to that contract and
/// regression-checked by bench/micro_kernels and tests/parallel_test.

/// Number of compute threads parallel loops may use (callers + pool
/// workers combined). Resolved on first use from the GNNDM_THREADS
/// environment variable, falling back to std::thread::hardware_concurrency.
size_t ComputeThreads();

/// Sets the compute thread count. 0 restores the environment/hardware
/// default. Safe to call at any time; in-flight parallel loops keep the
/// pool they started with. Thread count 1 releases the pool entirely.
void SetComputeThreads(size_t num_threads);

/// True while the calling thread is inside a ParallelFor body. Nested
/// parallel loops detect this and run serially instead of deadlocking the
/// pool with recursive waits.
bool InParallelRegion();

/// Default minimum number of iterations worth handing to another thread.
inline constexpr size_t kDefaultGrain = 1024;

/// Runs body(begin, end) over disjoint contiguous chunks covering [0, n).
/// `grain` is the minimum chunk size: a range of n <= grain runs inline on
/// the caller. Exceptions thrown by `body` are captured and rethrown on
/// the calling thread (remaining chunks may be skipped once a chunk has
/// thrown).
///
/// Bodies are taken by FunctionRef, not std::function: a kernel launch
/// must not heap-allocate a type-erased callable per call (the
/// hot-path-alloc lint rule), and the body never outlives the loop, so a
/// non-owning view is exactly right.
void ParallelFor(size_t n, size_t grain,
                 FunctionRef<void(size_t, size_t)> body);

inline void ParallelFor(size_t n, FunctionRef<void(size_t, size_t)> body) {
  ParallelFor(n, kDefaultGrain, body);
}

/// Runs body(row_begin, row_end, col_begin, col_end) over a tiling of the
/// [0, rows) x [0, cols) rectangle. Tiles are disjoint and cover the
/// rectangle exactly once; tile shape is fixed by (row_tile, col_tile)
/// regardless of thread count, so a kernel whose per-tile work is
/// position-independent is byte-identical at any thread count.
void ParallelFor2D(
    size_t rows, size_t cols, size_t row_tile, size_t col_tile,
    FunctionRef<void(size_t, size_t, size_t, size_t)> body);

}  // namespace gnndm

#endif  // GNNDM_COMMON_PARALLEL_FOR_H_
