#ifndef GNNDM_TENSOR_OPS_H_
#define GNNDM_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace gnndm {

/// BLAS-free dense kernels for the NN layers. All outputs are returned by
/// value or written through an output parameter named `out`; inputs are
/// never aliased with outputs.

/// out = a * b. Shapes: [m x k] * [k x n] -> [m x n]. Inner loop is laid
/// out i-k-j so both b and out stream row-major.
void MatMul(const Tensor& a, const Tensor& b, Tensor& out);

/// Rows of the reduction MatMulTransA feeds through one output tile at a
/// time. A weight gradient reduces over the batch rows (thousands), so
/// without the split every 4x16 register block streams its two operand
/// columns from memory. A 32-row slice of a 64x128 tile's operands
/// (A 8 KB, B 16 KB) stays in L1 while every register block of the tile
/// consumes it; at the widest 64x512 tile B's 64 KB slice stays in L2.
inline constexpr size_t kMatMulTransAChunk = 32;

/// out = a^T * b. Shapes: [k x m]^T * [k x n] -> [m x n].
/// Used for weight gradients: dW = X^T * dY. Each output tile runs the
/// reduction in kMatMulTransAChunk-row slices, ascending; an element's
/// partial sum is a float stored to `out` and reloaded between slices,
/// so the bits equal one ascending pass over all k rows.
void MatMulTransA(const Tensor& a, const Tensor& b, Tensor& out);

/// out = a * b^T. Shapes: [m x k] * [n x k]^T -> [m x n].
/// Used for input gradients: dX = dY * W^T.
void MatMulTransB(const Tensor& a, const Tensor& b, Tensor& out);

/// x.row(r) += bias for every row. bias must have 1 row, x.cols() cols.
void AddBiasInPlace(Tensor& x, const Tensor& bias);

/// Column-wise sum of `grad` accumulated into `bias_grad` (1 x cols).
void SumRows(const Tensor& grad, Tensor& bias_grad);

/// x = max(x, 0).
void ReluInPlace(Tensor& x);

/// grad[i] = activation[i] > 0 ? grad[i] : 0 — ReLU backward through the
/// stored post-activation values.
void ReluBackwardInPlace(Tensor& grad, const Tensor& activation);

/// y += alpha * x (same shape).
void Axpy(float alpha, const Tensor& x, Tensor& y);

/// x *= alpha.
void ScaleInPlace(Tensor& x, float alpha);

/// Dot product of two length-n buffers in the canonical fixed-lane
/// reduction order (tensor/simd.h): lane-strided partial sums folded by
/// the 8-lane accumulator tree, then the tail added in ascending order.
/// Every SIMD tier and thread count returns the same bits. This is the
/// reduction primitive future attention/score kernels must build on.
float DotCanonical(const float* x, const float* y, size_t n);

/// Row-wise softmax + mean cross-entropy over `labels`.
/// Writes dLoss/dLogits into `grad` (same shape as logits, already divided
/// by the row count) and returns the mean loss. labels[i] must be in
/// [0, logits.cols()).
double SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<int32_t>& labels, Tensor& grad);

/// Index of the max element in each row (prediction for accuracy),
/// written into `out` (resized to logits.rows()). The Into form exists
/// so per-batch evaluation loops can reuse one buffer instead of
/// allocating a fresh vector every batch (hot-path-alloc rule).
void ArgmaxRowsInto(const Tensor& logits, std::vector<int32_t>& out);

/// Allocating convenience wrapper around ArgmaxRowsInto.
std::vector<int32_t> ArgmaxRows(const Tensor& logits);

/// Glorot/Xavier uniform init: U(-s, s) with s = sqrt(6 / (fan_in+fan_out)).
void XavierInit(Tensor& w, Rng& rng);

}  // namespace gnndm

#endif  // GNNDM_TENSOR_OPS_H_
