#include "nn/model.h"

#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "nn/layers.h"
#include "nn/parameter.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/tensor.h"

namespace gnndm {

size_t GnnModel::NumParameters() {
  size_t total = 0;
  for (Parameter* p : Parameters()) total += p->NumElements();
  return total;
}

namespace {

/// Builds the shared MLP head: (num_mlp_layers - 1) hidden Linear+ReLU
/// layers followed by a Linear projection to num_classes.
std::vector<Linear> MakeMlpHead(const ModelConfig& config, size_t in_dim,
                                Rng& rng) {
  std::vector<Linear> mlp;
  GNNDM_CHECK(config.num_mlp_layers >= 1);
  size_t dim = in_dim;
  for (uint32_t i = 0; i + 1 < config.num_mlp_layers; ++i) {
    mlp.emplace_back("mlp" + std::to_string(i), dim, config.hidden_dim,
                     /*relu=*/true, rng);
    dim = config.hidden_dim;
  }
  mlp.emplace_back("mlp_out", dim, config.num_classes, /*relu=*/false, rng);
  return mlp;
}

}  // namespace

Gcn::Gcn(const ModelConfig& config) : rng_(config.seed) {
  GNNDM_CHECK(config.num_conv_layers >= 1);
  size_t dim = config.in_dim;
  for (uint32_t l = 0; l < config.num_conv_layers; ++l) {
    convs_.emplace_back("conv" + std::to_string(l), dim, config.hidden_dim,
                        /*relu=*/true, rng_);
    dropouts_.emplace_back(config.dropout);
    dim = config.hidden_dim;
  }
  mlp_ = MakeMlpHead(config, dim, rng_);
}

const Tensor& Gcn::Forward(const SampledSubgraph& sg, const Tensor& input,
                           bool train) {
  GNNDM_CHECK(sg.num_layers() == convs_.size());
  const Tensor* h = &input;
  Tensor buffer;
  for (size_t l = 0; l < convs_.size(); ++l) {
    buffer = convs_[l].Forward(sg.layers[l], *h);
    dropouts_[l].Forward(buffer, train, rng_);
    hidden_ = std::move(buffer);
    h = &hidden_;
  }
  const Tensor* out = h;
  for (auto& layer : mlp_) out = &layer.Forward(*out);
  return *out;
}

void Gcn::Backward(const SampledSubgraph& sg, const Tensor& d_logits) {
  // Each layer consumes `grad` and writes its input gradient to `next`.
  Tensor grad = d_logits;
  Tensor next;
  for (auto it = mlp_.rbegin(); it != mlp_.rend(); ++it) {
    it->Backward(grad, &next);
    std::swap(grad, next);
  }
  for (size_t l = convs_.size(); l-- > 0;) {
    dropouts_[l].Backward(grad);
    // Conv 0's input is the raw features: nothing reads its gradient.
    convs_[l].Backward(sg.layers[l], grad, l > 0 ? &next : nullptr);
    std::swap(grad, next);
  }
}

std::vector<Parameter*> Gcn::Parameters() {
  std::vector<Parameter*> params;
  // serial-ok: structural walk over a handful of layers, not a kernel.
  for (auto& conv : convs_) {
    for (Parameter* p : conv.Parameters()) params.push_back(p);
  }
  // serial-ok: structural walk over a handful of layers, not a kernel.
  for (auto& layer : mlp_) {
    for (Parameter* p : layer.Parameters()) params.push_back(p);
  }
  return params;
}

GraphSage::GraphSage(const ModelConfig& config) : rng_(config.seed) {
  GNNDM_CHECK(config.num_conv_layers >= 1);
  size_t dim = config.in_dim;
  for (uint32_t l = 0; l < config.num_conv_layers; ++l) {
    convs_.emplace_back("sage" + std::to_string(l), dim, config.hidden_dim,
                        /*relu=*/true, rng_);
    dropouts_.emplace_back(config.dropout);
    dim = config.hidden_dim;
  }
  mlp_ = MakeMlpHead(config, dim, rng_);
}

const Tensor& GraphSage::Forward(const SampledSubgraph& sg,
                                 const Tensor& input, bool train) {
  GNNDM_CHECK(sg.num_layers() == convs_.size());
  const Tensor* h = &input;
  Tensor buffer;
  for (size_t l = 0; l < convs_.size(); ++l) {
    buffer = convs_[l].Forward(sg.layers[l], *h);
    dropouts_[l].Forward(buffer, train, rng_);
    hidden_ = std::move(buffer);
    h = &hidden_;
  }
  const Tensor* out = h;
  for (auto& layer : mlp_) out = &layer.Forward(*out);
  return *out;
}

void GraphSage::Backward(const SampledSubgraph& sg, const Tensor& d_logits) {
  // Each layer consumes `grad` and writes its input gradient to `next`.
  Tensor grad = d_logits;
  Tensor next;
  for (auto it = mlp_.rbegin(); it != mlp_.rend(); ++it) {
    it->Backward(grad, &next);
    std::swap(grad, next);
  }
  for (size_t l = convs_.size(); l-- > 0;) {
    dropouts_[l].Backward(grad);
    // Conv 0's input is the raw features: nothing reads its gradient.
    convs_[l].Backward(sg.layers[l], grad, l > 0 ? &next : nullptr);
    std::swap(grad, next);
  }
}

std::vector<Parameter*> GraphSage::Parameters() {
  std::vector<Parameter*> params;
  // serial-ok: structural walk over a handful of layers, not a kernel.
  for (auto& conv : convs_) {
    for (Parameter* p : conv.Parameters()) params.push_back(p);
  }
  // serial-ok: structural walk over a handful of layers, not a kernel.
  for (auto& layer : mlp_) {
    for (Parameter* p : layer.Parameters()) params.push_back(p);
  }
  return params;
}

Mlp::Mlp(const ModelConfig& config) : rng_(config.seed) {
  size_t dim = config.in_dim;
  uint32_t total_layers = config.num_conv_layers + config.num_mlp_layers;
  GNNDM_CHECK(total_layers >= 1);
  for (uint32_t i = 0; i + 1 < total_layers; ++i) {
    layers_.emplace_back("fc" + std::to_string(i), dim, config.hidden_dim,
                         /*relu=*/true, rng_);
    dim = config.hidden_dim;
  }
  layers_.emplace_back("fc_out", dim, config.num_classes, /*relu=*/false,
                       rng_);
}

const Tensor& Mlp::Forward(const SampledSubgraph& sg, const Tensor& input,
                           bool /*train*/) {
  // Seed rows come first at every level of a SampledSubgraph, so the MLP
  // reads the first |seeds| rows of the input feature block.
  const size_t num_seeds = sg.seeds().size();
  GNNDM_CHECK(input.rows() >= num_seeds);
  seed_input_.Resize(num_seeds, input.cols());
  // serial-ok: at most one batch of rows; memory-bound copy off hot path.
  for (size_t i = 0; i < num_seeds; ++i) {
    auto src = input.row(i);
    auto dst = seed_input_.row(i);
    for (size_t f = 0; f < input.cols(); ++f) dst[f] = src[f];
  }
  const Tensor* out = &seed_input_;
  for (auto& layer : layers_) out = &layer.Forward(*out);
  return *out;
}

void Mlp::Backward(const SampledSubgraph& /*sg*/, const Tensor& d_logits) {
  Tensor grad = d_logits;
  Tensor next;
  for (size_t l = layers_.size(); l-- > 0;) {
    // The first layer's input is the raw features: nothing reads its
    // gradient.
    layers_[l].Backward(grad, l > 0 ? &next : nullptr);
    std::swap(grad, next);
  }
}

std::vector<Parameter*> Mlp::Parameters() {
  std::vector<Parameter*> params;
  // serial-ok: structural walk over a handful of layers, not a kernel.
  for (auto& layer : layers_) {
    for (Parameter* p : layer.Parameters()) params.push_back(p);
  }
  return params;
}

std::unique_ptr<GnnModel> MakeModel(const std::string& name,
                                    const ModelConfig& config) {
  if (name == "gcn") return std::make_unique<Gcn>(config);
  if (name == "graphsage") return std::make_unique<GraphSage>(config);
  if (name == "mlp") return std::make_unique<Mlp>(config);
  return nullptr;
}

}  // namespace gnndm
