#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace gnndm {

// All dense kernels bottom out in the runtime-dispatched SIMD tables
// (tensor/simd.h). The ParallelFor tilings here only decide which thread
// owns which output elements; the per-element accumulation order is
// fixed by the kernel table's contract, so results are byte-identical
// at any thread count and on any ISA tier (DESIGN.md §13).

void MatMul(const Tensor& a, const Tensor& b, Tensor& out) {
  GNNDM_CHECK(a.cols() == b.rows());
  out.Resize(a.rows(), b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (m == 0 || k == 0 || n == 0) return;
  const SimdKernels& simd = Simd();
  // Tiled over the output: every out element belongs to exactly one
  // tile, and within a tile the register-blocked micro-kernel runs the
  // kk reduction in full ascending order per element. The column tile
  // bounds the live slice of b to cache size.
  ParallelFor2D(m, n, /*row_tile=*/64, /*col_tile=*/512,
                [&](size_t i0, size_t i1, size_t j0, size_t j1) {
                  simd.gemm_tile(a.data(), k, b.data(), n, out.data(), n,
                                 i0, i1, j0, j1, k);
                });
}

void MatMulTransA(const Tensor& a, const Tensor& b, Tensor& out) {
  GNNDM_CHECK(a.rows() == b.rows());
  out.Resize(a.cols(), b.cols());
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (k == 0 || m == 0 || n == 0) return;
  const SimdKernels& simd = Simd();
  // Same contract as MatMul; only the A(i, kk) addressing differs
  // (A is [k x m], read column-wise via broadcasts). The reduction runs
  // in ascending kMatMulTransAChunk-row slices per tile: gemm_tile_ta
  // loads each element's running sum from `out` and stores it back, a
  // float round trip that changes no bits.
  ParallelFor2D(m, n, /*row_tile=*/64, /*col_tile=*/512,
                [&](size_t i0, size_t i1, size_t j0, size_t j1) {
                  for (size_t k0 = 0; k0 < k; k0 += kMatMulTransAChunk) {
                    simd.gemm_tile_ta(a.data() + k0 * m, m,
                                      b.data() + k0 * n, n, out.data(), n,
                                      i0, i1, j0, j1,
                                      std::min(kMatMulTransAChunk, k - k0));
                  }
                });
}

void MatMulTransB(const Tensor& a, const Tensor& b, Tensor& out) {
  GNNDM_CHECK(a.cols() == b.cols());
  out.Resize(a.rows(), b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (m == 0 || k == 0 || n == 0) return;
  const SimdKernels& simd = Simd();
  // Pack b^T once into a [k x n] row-major panel, then run the exact
  // MatMul micro-kernel on it. The strided b reads happen once in a
  // cache-blocked transpose of pure copies instead of once per output
  // row, which is what made the _tb variant fall off a cliff. Packing
  // cost is O(k*n) against O(m*k*n) compute, and the per-element
  // accumulation order (ascending kk) is unchanged by the layout move.
  // Thread_local scratch: repeated calls (every Linear/GcnConv backward)
  // reuse the buffer instead of allocating per batch.
  static thread_local std::vector<float> packed;
  packed.resize(k * n);
  float* bt = packed.data();
  ParallelFor(n, /*grain=*/std::max<size_t>(16, 8192 / std::max<size_t>(1, k)),
              [&](size_t j0, size_t j1) {
                simd.pack_b_transpose(b.data(), k, j0, j1, k, n, bt);
              });
  ParallelFor2D(m, n, /*row_tile=*/64, /*col_tile=*/512,
                [&](size_t i0, size_t i1, size_t j0, size_t j1) {
                  simd.gemm_tile(a.data(), k, bt, n, out.data(), n, i0,
                                 i1, j0, j1, k);
                });
}

void AddBiasInPlace(Tensor& x, const Tensor& bias) {
  GNNDM_CHECK(bias.rows() == 1 && bias.cols() == x.cols());
  const size_t cols = x.cols();
  const SimdKernels& simd = Simd();
  const float* brow = bias.data();
  // row += 1.0f * bias: the multiply by one is exact, so this is the
  // same bits as the historical row[j] += bias[j] loop.
  ParallelFor(x.rows(), std::max<size_t>(1, 8192 / std::max<size_t>(1, cols)),
              [&](size_t r0, size_t r1) {
                for (size_t i = r0; i < r1; ++i) {
                  simd.axpy(cols, 1.0f, brow, x.data() + i * cols);
                }
              });
}

void SumRows(const Tensor& grad, Tensor& bias_grad) {
  bias_grad.Resize(1, grad.cols());
  const size_t cols = grad.cols();
  const SimdKernels& simd = Simd();
  // Column-sliced so each task owns disjoint accumulators; the reduction
  // over rows stays ascending per column — serial bits preserved.
  ParallelFor(cols, /*grain=*/64, [&](size_t c0, size_t c1) {
    float* acc = bias_grad.data() + c0;
    for (size_t i = 0; i < grad.rows(); ++i) {
      simd.axpy(c1 - c0, 1.0f, grad.data() + i * cols + c0, acc);
    }
  });
}

void ReluInPlace(Tensor& x) {
  float* p = x.data();
  const SimdKernels& simd = Simd();
  ParallelFor(x.size(), /*grain=*/16384, [p, &simd](size_t b, size_t e) {
    simd.relu(e - b, p + b);
  });
}

void ReluBackwardInPlace(Tensor& grad, const Tensor& activation) {
  GNNDM_CHECK(grad.rows() == activation.rows() &&
              grad.cols() == activation.cols());
  float* g = grad.data();
  const float* a = activation.data();
  const SimdKernels& simd = Simd();
  ParallelFor(grad.size(), /*grain=*/16384,
              [g, a, &simd](size_t b, size_t e) {
                simd.relu_bwd(e - b, a + b, g + b);
              });
}

void Axpy(float alpha, const Tensor& x, Tensor& y) {
  GNNDM_CHECK(x.rows() == y.rows() && x.cols() == y.cols());
  const float* xp = x.data();
  float* yp = y.data();
  const SimdKernels& simd = Simd();
  ParallelFor(x.size(), /*grain=*/16384,
              [alpha, xp, yp, &simd](size_t b, size_t e) {
                simd.axpy(e - b, alpha, xp + b, yp + b);
              });
}

void ScaleInPlace(Tensor& x, float alpha) {
  float* p = x.data();
  const SimdKernels& simd = Simd();
  ParallelFor(x.size(), /*grain=*/16384,
              [alpha, p, &simd](size_t b, size_t e) {
                simd.scale(e - b, alpha, p + b);
              });
}

float DotCanonical(const float* x, const float* y, size_t n) {
  // Single accumulator chain by design: the virtual-lane tree *is* the
  // deterministic parallel-reduction shape, so no ParallelFor here.
  return Simd().dot(n, x, y);
}

double SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<int32_t>& labels, Tensor& grad) {
  GNNDM_CHECK(labels.size() == logits.rows());
  grad.Resize(logits.rows(), logits.cols());
  const size_t n = logits.rows(), c = logits.cols();
  if (n == 0) return 0.0;
  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  // The scalar loss reduction over rows defines the bitwise result.
  // serial-ok: splitting the row loop would reorder the double accumulation.
  for (size_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * c;
    float* grow = grad.data() + i * c;
    float max_logit = row[0];
    for (size_t j = 1; j < c; ++j) max_logit = std::max(max_logit, row[j]);
    double denom = 0.0;
    for (size_t j = 0; j < c; ++j) denom += std::exp(row[j] - max_logit);
    const int32_t label = labels[i];
    GNNDM_CHECK(label >= 0 && static_cast<size_t>(label) < c);
    loss -= (row[label] - max_logit) - std::log(denom);
    for (size_t j = 0; j < c; ++j) {
      float p = static_cast<float>(std::exp(row[j] - max_logit) / denom);
      grow[j] = (p - (static_cast<size_t>(label) == j ? 1.0f : 0.0f)) * inv_n;
    }
  }
  return loss / static_cast<double>(n);
}

void ArgmaxRowsInto(const Tensor& logits, std::vector<int32_t>& out) {
  out.resize(logits.rows());
  // Evaluation-only helper, off the training hot path.
  // serial-ok: O(rows * cols) compares, memory-bound; not worth scheduling.
  for (size_t i = 0; i < logits.rows(); ++i) {
    const float* row = logits.data() + i * logits.cols();
    size_t best = 0;
    for (size_t j = 1; j < logits.cols(); ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[i] = static_cast<int32_t>(best);
  }
}

std::vector<int32_t> ArgmaxRows(const Tensor& logits) {
  std::vector<int32_t> out;
  ArgmaxRowsInto(logits, out);
  return out;
}

void XavierInit(Tensor& w, Rng& rng) {
  double s = std::sqrt(6.0 / static_cast<double>(w.rows() + w.cols()));
  float* p = w.data();
  // Draws from a single sequential RNG stream; parallelizing would
  // change which variate lands where (and the loop is not kernel-shaped,
  // so no escape marker is needed).
  for (size_t i = 0; i < w.size(); ++i) {
    p[i] = static_cast<float>((rng.UniformReal() * 2.0 - 1.0) * s);
  }
}

}  // namespace gnndm
