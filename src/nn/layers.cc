#include "nn/layers.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "nn/aggregate.h"
#include "nn/row_view.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace gnndm {

Linear::Linear(std::string name, size_t in_dim, size_t out_dim, bool relu,
               Rng& rng)
    : weight_(name + ".weight", in_dim, out_dim),
      bias_(name + ".bias", 1, out_dim),
      relu_(relu) {
  XavierInit(weight_.value, rng);
}

const Tensor& Linear::Forward(const Tensor& x) {
  input_cache_ = x;
  MatMul(x, weight_.value, output_);
  AddBiasInPlace(output_, bias_.value);
  if (relu_) ReluInPlace(output_);
  return output_;
}

void Linear::Backward(Tensor& d_out, Tensor* d_in) {
  if (relu_) ReluBackwardInPlace(d_out, output_);
  Tensor dw;
  MatMulTransA(input_cache_, d_out, dw);
  Axpy(1.0f, dw, weight_.grad);
  Tensor db;
  SumRows(d_out, db);
  Axpy(1.0f, db, bias_.grad);
  if (d_in != nullptr) MatMulTransB(d_out, weight_.value, *d_in);
}

GcnConv::GcnConv(std::string name, size_t in_dim, size_t out_dim, bool relu,
                 Rng& rng)
    : weight_(name + ".weight", in_dim, out_dim),
      bias_(name + ".bias", 1, out_dim),
      relu_(relu) {
  XavierInit(weight_.value, rng);
}

const Tensor& GcnConv::Forward(const SampleLayer& layer,
                               const RowView& src) {
  MeanAggregateWithSelf(layer, src, agg_cache_);
  MatMul(agg_cache_, weight_.value, output_);
  AddBiasInPlace(output_, bias_.value);
  if (relu_) ReluInPlace(output_);
  return output_;
}

void GcnConv::Backward(const SampleLayer& layer, Tensor& d_out,
                       Tensor* d_src) {
  if (relu_) ReluBackwardInPlace(d_out, output_);
  Tensor dw;
  MatMulTransA(agg_cache_, d_out, dw);
  Axpy(1.0f, dw, weight_.grad);
  Tensor db;
  SumRows(d_out, db);
  Axpy(1.0f, db, bias_.grad);
  if (d_src == nullptr) return;
  Tensor d_agg;
  MatMulTransB(d_out, weight_.value, d_agg);
  d_src->Resize(layer.num_src, weight_.value.rows());
  MeanAggregateWithSelfBackward(layer, d_agg, *d_src);
}

SageConv::SageConv(std::string name, size_t in_dim, size_t out_dim,
                   bool relu, Rng& rng)
    : weight_self_(name + ".weight_self", in_dim, out_dim),
      weight_neigh_(name + ".weight_neigh", in_dim, out_dim),
      bias_(name + ".bias", 1, out_dim),
      relu_(relu) {
  XavierInit(weight_self_.value, rng);
  XavierInit(weight_neigh_.value, rng);
}

const Tensor& SageConv::Forward(const SampleLayer& layer,
                                const RowView& src) {
  GNNDM_CHECK(src.rows() == layer.num_src);
  const size_t in_dim = src.cols();
  // Self branch: destination i's features are src row i. Row-parallel
  // copy — disjoint rows, byte-identical at any thread count.
  self_cache_.Resize(layer.num_dst, in_dim);
  {
    const SimdKernels& simd = Simd();
    ParallelFor(layer.num_dst,
                std::max<size_t>(1, 8192 / std::max<size_t>(1, in_dim)),
                [&](size_t r0, size_t r1) {
                  for (size_t i = r0; i < r1; ++i) {
                    simd.copy(in_dim, src.row(i), self_cache_.row(i).data());
                  }
                });
  }
  MeanAggregateNeighbors(layer, src, agg_cache_);

  MatMul(self_cache_, weight_self_.value, output_);
  Tensor neigh_out;
  MatMul(agg_cache_, weight_neigh_.value, neigh_out);
  Axpy(1.0f, neigh_out, output_);
  AddBiasInPlace(output_, bias_.value);
  if (relu_) ReluInPlace(output_);
  return output_;
}

void SageConv::Backward(const SampleLayer& layer, Tensor& d_out,
                        Tensor* d_src) {
  if (relu_) ReluBackwardInPlace(d_out, output_);

  Tensor dw_self;
  MatMulTransA(self_cache_, d_out, dw_self);
  Axpy(1.0f, dw_self, weight_self_.grad);
  Tensor dw_neigh;
  MatMulTransA(agg_cache_, d_out, dw_neigh);
  Axpy(1.0f, dw_neigh, weight_neigh_.grad);
  Tensor db;
  SumRows(d_out, db);
  Axpy(1.0f, db, bias_.grad);
  if (d_src == nullptr) return;

  const size_t in_dim = weight_self_.value.rows();
  d_src->Resize(layer.num_src, in_dim);
  // Self branch gradient lands on the first num_dst source rows.
  Tensor d_self;
  MatMulTransB(d_out, weight_self_.value, d_self);
  {
    // drow += 1.0f * grow: the multiply by one is exact, same bits as
    // the historical += loop.
    const SimdKernels& simd = Simd();
    ParallelFor(layer.num_dst,
                std::max<size_t>(1, 8192 / std::max<size_t>(1, in_dim)),
                [&](size_t r0, size_t r1) {
                  for (size_t i = r0; i < r1; ++i) {
                    simd.axpy(in_dim, 1.0f, d_self.row(i).data(),
                              d_src->row(i).data());
                  }
                });
  }
  // Neighbor branch gradient scatters through the aggregation.
  Tensor d_agg;
  MatMulTransB(d_out, weight_neigh_.value, d_agg);
  MeanAggregateNeighborsBackward(layer, d_agg, *d_src);
}

namespace {

/// v when keep is 1 and +0.0f when it is 0, selected without a branch:
/// the mask keeps every bit of v or clears them all.
inline float KeepOrZero(uint32_t keep, float v) {
  return std::bit_cast<float>(std::bit_cast<uint32_t>(v) & (0u - keep));
}

}  // namespace

void Dropout::Forward(Tensor& x, bool train, Rng& rng) {
  active_ = train && rate_ > 0.0;
  if (!active_) return;
  const size_t n = x.size();
  mask_.resize(n);
  const float scale = 1.0f / static_cast<float>(1.0 - rate_);
  // UniformReal() < rate_ compares u * 2^-53 with rate_ for the integer
  // u = Next() >> 11. Scaling by 2^53 is exact, so the element drops
  // exactly when u < ceil(rate_ * 2^53): the same draws and decisions.
  const uint64_t threshold =
      rate_ >= 1.0 ? uint64_t{1} << 53
                   : static_cast<uint64_t>(std::ceil(rate_ * 0x1.0p53));
  // Draw from a local copy written back once. The byte stores into the
  // mask may alias anything, so the caller's generator, the rate and
  // the buffers would otherwise be reloaded and stored on every element.
  Rng local = rng;
  float* p = x.data();
  uint8_t* mask = mask_.data();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t keep = (local.Next() >> 11) >= threshold;
    mask[i] = static_cast<uint8_t>(keep);
    p[i] = KeepOrZero(keep, p[i] * scale);
  }
  rng = local;
}

void Dropout::Backward(Tensor& d_x) const {
  if (!active_) return;
  GNNDM_CHECK(d_x.size() == mask_.size());
  const float scale = 1.0f / static_cast<float>(1.0 - rate_);
  float* p = d_x.data();
  const uint8_t* mask = mask_.data();
  const size_t n = d_x.size();
  for (size_t i = 0; i < n; ++i) p[i] = KeepOrZero(mask[i], p[i] * scale);
}

}  // namespace gnndm
