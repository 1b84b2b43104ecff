#ifndef GNNDM_NN_LAYERS_H_
#define GNNDM_NN_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/parameter.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/tensor.h"

namespace gnndm {

/// Backward contract of Linear, GcnConv and SageConv: Backward must follow
/// the matching Forward (single-use-per-step discipline, as in a tape).
/// It consumes `d_out` (dLoss/dOutput; the ReLU mask is applied to it in
/// place), adds the parameter gradients into each Parameter's `.grad`,
/// and writes dLoss/dInput into its last argument only when that is
/// non-null. Pass nullptr where nothing reads the input gradient, as for
/// the first layer of a model, whose input is the raw features. The
/// parameter gradients never depend on the input gradient, so they are
/// bit-identical either way. The input gradient must not alias `d_out`.
///
/// Each parameter gradient is computed into a temporary and then added to
/// `.grad`, never accumulated inside the GEMM: `.grad` may already hold
/// other gradients (DistTrainer sums up to four workers' before one
/// Step), and starting the GEMM's sum from them would reorder that sum
/// and change the bits.

/// Fully connected layer: y = x W + b, with optional ReLU fused in.
/// Forward caches its input and activation.
class Linear {
 public:
  Linear(std::string name, size_t in_dim, size_t out_dim, bool relu,
         Rng& rng);

  /// Computes the layer output for `x` [n x in_dim].
  const Tensor& Forward(const Tensor& x);

  /// `d_in` receives dLoss/dInput [n x in_dim].
  void Backward(Tensor& d_out, Tensor* d_in);

  std::vector<Parameter*> Parameters() { return {&weight_, &bias_}; }
  size_t in_dim() const { return weight_.value.rows(); }
  size_t out_dim() const { return weight_.value.cols(); }

 private:
  Parameter weight_;  // [in x out]
  Parameter bias_;    // [1 x out]
  bool relu_;
  Tensor input_cache_;
  Tensor output_;
};

/// Graph convolution (Eq. 1 + Eq. 2 with mean aggregation and self loop):
///   h_dst = act( mean(h_src over N(dst) ∪ {dst}) · W + b ).
class GcnConv {
 public:
  GcnConv(std::string name, size_t in_dim, size_t out_dim, bool relu,
          Rng& rng);

  /// `src` is [layer.num_src x in_dim]; returns [layer.num_dst x out_dim].
  const Tensor& Forward(const SampleLayer& layer, const Tensor& src);

  /// `d_src` receives dLoss/dSrc [num_src x in_dim].
  void Backward(const SampleLayer& layer, Tensor& d_out, Tensor* d_src);

  std::vector<Parameter*> Parameters() { return {&weight_, &bias_}; }

 private:
  Parameter weight_;
  Parameter bias_;
  bool relu_;
  Tensor agg_cache_;  // aggregated inputs, for dW
  Tensor output_;
};

/// GraphSAGE-mean convolution:
///   h_dst = act( h_dst · W_self + mean(h_src over N(dst)) · W_neigh + b ).
/// Uses the invariant that destination i's own features are src row i.
class SageConv {
 public:
  SageConv(std::string name, size_t in_dim, size_t out_dim, bool relu,
           Rng& rng);

  const Tensor& Forward(const SampleLayer& layer, const Tensor& src);
  void Backward(const SampleLayer& layer, Tensor& d_out, Tensor* d_src);

  std::vector<Parameter*> Parameters() {
    return {&weight_self_, &weight_neigh_, &bias_};
  }

 private:
  Parameter weight_self_;
  Parameter weight_neigh_;
  Parameter bias_;
  bool relu_;
  Tensor self_cache_;
  Tensor agg_cache_;
  Tensor output_;
};

/// Inverted dropout: active only when Forward is called with train=true.
class Dropout {
 public:
  explicit Dropout(double rate) : rate_(rate) {}

  /// Applies the mask in place when training; identity otherwise.
  void Forward(Tensor& x, bool train, Rng& rng);
  /// Applies the same mask to the gradient in place.
  void Backward(Tensor& d_x) const;

 private:
  double rate_;
  std::vector<uint8_t> mask_;
  bool active_ = false;
};

}  // namespace gnndm

#endif  // GNNDM_NN_LAYERS_H_
