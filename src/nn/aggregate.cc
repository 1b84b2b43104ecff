#include "nn/aggregate.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace gnndm {

namespace {

/// Forward grain: hand off at least ~8K floats of output per chunk so
/// narrow feature dims don't drown in scheduling overhead.
size_t RowGrain(size_t d) {
  return std::max<size_t>(1, 8192 / std::max<size_t>(1, d));
}

/// Backward grain: every chunk of a scatter re-scans the whole edge list,
/// so a grain of ceil(num_src / threads) caps the chunks (and re-scans)
/// at ComputeThreads(); below 256 source rows a chunk is not worth it.
size_t ScatterGrain(size_t num_src) {
  const size_t threads = ComputeThreads();
  return std::max<size_t>(256, (num_src + threads - 1) / threads);
}

}  // namespace

// The loops here own the edge-walk order (ascending dst, self before
// edges, ascending edge index); the f-axis inner work is delegated to
// the dispatched SIMD table, which vectorizes along the feature dim
// without touching the accumulation order — so tier and thread count
// never change the bits.

// gnndm-hot
void MeanAggregateWithSelf(const SampleLayer& layer, const Tensor& src,
                           Tensor& out) {
  GNNDM_CHECK(src.rows() == layer.num_src);
  const size_t d = src.cols();
  out.Resize(layer.num_dst, d);
  const SimdKernels& simd = Simd();
  // Row-parallel: destination rows are written by exactly one chunk and
  // read-only share src, and the per-row edge walk keeps its serial
  // order — byte-identical at any thread count.
  ParallelFor(layer.num_dst, RowGrain(d), [&](size_t r0, size_t r1) {
    for (size_t i = r0; i < r1; ++i) {
      float* orow = out.data() + i * d;
      const uint32_t begin = layer.offsets[i];
      const uint32_t end = layer.offsets[i + 1];
      simd.copy(d, src.data() + i * d, orow);
      simd.gather_rows_add(d, src.data(), layer.neighbors.data() + begin,
                           end - begin, orow);
      simd.scale(d, 1.0f / static_cast<float>(1 + end - begin), orow);
    }
  });
}

// gnndm-hot
void MeanAggregateWithSelfBackward(const SampleLayer& layer,
                                   const Tensor& d_out, Tensor& d_src) {
  GNNDM_CHECK(d_out.rows() == layer.num_dst);
  const size_t d = d_out.cols();
  if (d_src.rows() != layer.num_src || d_src.cols() != d) {
    d_src.Resize(layer.num_src, d);
  }
  const SimdKernels& simd = Simd();
  // Destination-partitioned scatter: every chunk walks the full dst/edge
  // list in serial order but applies only the updates whose d_src row
  // falls inside its own contiguous slice. Chunks write disjoint rows
  // (race-free, no atomics), and each row still receives its
  // contributions in exactly the serial order (ascending dst, self
  // before edges) — byte-identical to the serial loop. The redundant
  // index re-scan is cheap next to the d-wide row updates, and
  // ScatterGrain bounds the chunk count by the thread count.
  ParallelFor(
      layer.num_src, ScatterGrain(layer.num_src), [&](size_t s0, size_t s1) {
        for (uint32_t i = 0; i < layer.num_dst; ++i) {
          const uint32_t begin = layer.offsets[i];
          const uint32_t end = layer.offsets[i + 1];
          const float inv = 1.0f / static_cast<float>(1 + end - begin);
          const float* grow = d_out.data() + static_cast<size_t>(i) * d;
          if (i >= s0 && i < s1) {
            simd.axpy(d, inv, grow,
                      d_src.data() + static_cast<size_t>(i) * d);
          }
          simd.scatter_rows_axpy(d, grow, inv,
                                 layer.neighbors.data() + begin,
                                 end - begin, s0, s1, d_src.data());
        }
      });
}

// gnndm-hot
void MeanAggregateNeighbors(const SampleLayer& layer, const Tensor& src,
                            Tensor& out) {
  GNNDM_CHECK(src.rows() == layer.num_src);
  const size_t d = src.cols();
  out.Resize(layer.num_dst, d);
  const SimdKernels& simd = Simd();
  ParallelFor(layer.num_dst, RowGrain(d), [&](size_t r0, size_t r1) {
    for (size_t i = r0; i < r1; ++i) {
      float* orow = out.data() + i * d;
      const uint32_t begin = layer.offsets[i];
      const uint32_t end = layer.offsets[i + 1];
      if (begin == end) continue;  // zero row (Resize zero-fills)
      simd.gather_rows_add(d, src.data(), layer.neighbors.data() + begin,
                           end - begin, orow);
      simd.scale(d, 1.0f / static_cast<float>(end - begin), orow);
    }
  });
}

// gnndm-hot
void MeanAggregateNeighborsBackward(const SampleLayer& layer,
                                    const Tensor& d_out, Tensor& d_src) {
  GNNDM_CHECK(d_out.rows() == layer.num_dst);
  const size_t d = d_out.cols();
  if (d_src.rows() != layer.num_src || d_src.cols() != d) {
    d_src.Resize(layer.num_src, d);
  }
  const SimdKernels& simd = Simd();
  // Same destination-partitioned scheme as MeanAggregateWithSelfBackward.
  ParallelFor(
      layer.num_src, ScatterGrain(layer.num_src), [&](size_t s0, size_t s1) {
        for (uint32_t i = 0; i < layer.num_dst; ++i) {
          const uint32_t begin = layer.offsets[i];
          const uint32_t end = layer.offsets[i + 1];
          if (begin == end) continue;
          const float* grow = d_out.data() + static_cast<size_t>(i) * d;
          simd.scatter_rows_axpy(d, grow,
                                 1.0f / static_cast<float>(end - begin),
                                 layer.neighbors.data() + begin,
                                 end - begin, s0, s1, d_src.data());
        }
      });
}

}  // namespace gnndm
