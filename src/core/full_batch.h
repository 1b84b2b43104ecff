#ifndef GNNDM_CORE_FULL_BATCH_H_
#define GNNDM_CORE_FULL_BATCH_H_

#include <cstdint>
#include <memory>

#include "core/convergence.h"
#include "core/trainer.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/tensor.h"
#include "transfer/device_model.h"

namespace gnndm {

/// Full-batch (full-graph) training in the style of NeuGraph / ROC /
/// Sancus (§6.2): every vertex participates in every step over the FULL
/// adjacency (no sampling), the loss is masked to the training vertices,
/// and parameters update once per epoch. The paper's contrast: cheap
/// per-update bookkeeping but one update per epoch, activations for the
/// whole graph resident in GPU memory, and poor scalability — which is
/// why sample-based mini-batch training won (§6.2).
class FullBatchTrainer {
 public:
  /// Uses `config.model`, dims, learning rate; batch/sampling fields are
  /// ignored (full batch has neither).
  FullBatchTrainer(const Dataset& dataset, const TrainerConfig& config);

  /// One full-graph forward/backward/update. EpochStats fields:
  /// batch_prep is 0 (no sampling), transfer covers the one-time feature
  /// residency amortized per epoch, involved counts are |V| and |E| per
  /// layer.
  EpochStats TrainEpoch();

  double Evaluate(const std::vector<VertexId>& vertices);

  const ConvergenceTracker& TrainToConvergence(uint32_t max_epochs,
                                               uint32_t patience = 10);

  /// Estimated peak device memory: features + per-layer activations for
  /// the entire graph — the full-batch scalability bottleneck.
  uint64_t PeakMemoryBytes() const;

  GnnModel& model() { return *model_; }
  const ConvergenceTracker& tracker() const { return tracker_; }
  double total_virtual_seconds() const { return total_seconds_; }

 private:
  const Dataset& dataset_;
  TrainerConfig config_;
  std::unique_ptr<GnnModel> model_;
  std::unique_ptr<Optimizer> optimizer_;
  SampledSubgraph full_graph_;  // identity levels + full adjacency
  Tensor input_;                // all vertex features, staged once
  ConvergenceTracker tracker_;
  double total_seconds_ = 0.0;
  uint32_t epoch_ = 0;
};

}  // namespace gnndm

#endif  // GNNDM_CORE_FULL_BATCH_H_
