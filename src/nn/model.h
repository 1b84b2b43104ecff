#ifndef GNNDM_NN_MODEL_H_
#define GNNDM_NN_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/parameter.h"
#include "nn/row_view.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/tensor.h"

namespace gnndm {

/// A mini-batch GNN model operating on sampled subgraphs. `input` views
/// the raw feature rows of sg.input_vertices(): a staged tensor of them,
/// or the feature matrix read in place (nn/row_view.h). Forward returns
/// logits for sg.seeds() (one row per seed). Backward must follow the
/// matching Forward and accumulates into parameter gradients; it reads
/// nothing of `input`.
class GnnModel {
 public:
  virtual ~GnnModel() = default;

  virtual const Tensor& Forward(const SampledSubgraph& sg,
                                const RowView& input, bool train) = 0;
  virtual void Backward(const SampledSubgraph& sg,
                        const Tensor& d_logits) = 0;
  virtual std::vector<Parameter*> Parameters() = 0;
  /// Number of graph hops the model consumes (the L in L-hop sampling).
  virtual uint32_t num_hops() const = 0;
  virtual std::string name() const = 0;

  /// Total trainable scalar count.
  size_t NumParameters();
};

/// Shared hyper-parameters for the built-in models. The paper's setup:
/// hidden = 128, two conv layers, two MLP head layers (§4); the scaled
/// defaults here shrink hidden for CPU-speed but keep the architecture.
struct ModelConfig {
  size_t in_dim = 32;
  size_t hidden_dim = 32;
  size_t num_classes = 8;
  uint32_t num_conv_layers = 2;
  uint32_t num_mlp_layers = 2;
  double dropout = 0.1;
  uint64_t seed = 7;
};

/// GCN (Kipf & Welling) with mean-with-self aggregation per Eq. 1/2,
/// followed by an MLP head, as in the paper's Fig. 2 setup.
class Gcn : public GnnModel {
 public:
  explicit Gcn(const ModelConfig& config);

  const Tensor& Forward(const SampledSubgraph& sg, const RowView& input,
                        bool train) override;
  void Backward(const SampledSubgraph& sg, const Tensor& d_logits) override;
  std::vector<Parameter*> Parameters() override;
  uint32_t num_hops() const override {
    return static_cast<uint32_t>(convs_.size());
  }
  std::string name() const override { return "gcn"; }

 private:
  Rng rng_;
  std::vector<GcnConv> convs_;
  std::vector<Linear> mlp_;
  std::vector<Dropout> dropouts_;  // one per conv layer, applied after it
  Tensor hidden_;                  // activations between conv layers
};

/// GraphSAGE-mean (Hamilton et al.): separate self/neighbor weights,
/// neighbor-only mean aggregation.
class GraphSage : public GnnModel {
 public:
  explicit GraphSage(const ModelConfig& config);

  const Tensor& Forward(const SampledSubgraph& sg, const RowView& input,
                        bool train) override;
  void Backward(const SampledSubgraph& sg, const Tensor& d_logits) override;
  std::vector<Parameter*> Parameters() override;
  uint32_t num_hops() const override {
    return static_cast<uint32_t>(convs_.size());
  }
  std::string name() const override { return "graphsage"; }

 private:
  Rng rng_;
  std::vector<SageConv> convs_;
  std::vector<Linear> mlp_;
  std::vector<Dropout> dropouts_;
  Tensor hidden_;
};

/// Pure MLP — the dependency-free DNN baseline of Fig. 2. Relies on the
/// SampledSubgraph invariant that the first |seeds| input rows are exactly
/// the seed vertices' features, so it ignores the graph structure.
class Mlp : public GnnModel {
 public:
  explicit Mlp(const ModelConfig& config);

  const Tensor& Forward(const SampledSubgraph& sg, const RowView& input,
                        bool train) override;
  void Backward(const SampledSubgraph& sg, const Tensor& d_logits) override;
  std::vector<Parameter*> Parameters() override;
  uint32_t num_hops() const override { return 0; }
  std::string name() const override { return "mlp"; }

 private:
  Rng rng_;
  std::vector<Linear> layers_;
  Tensor seed_input_;
};

/// Factory: "gcn", "graphsage", or "mlp". Returns nullptr for unknown
/// names.
std::unique_ptr<GnnModel> MakeModel(const std::string& name,
                                    const ModelConfig& config);

}  // namespace gnndm

#endif  // GNNDM_NN_MODEL_H_
