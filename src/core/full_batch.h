#ifndef GNNDM_CORE_FULL_BATCH_H_
#define GNNDM_CORE_FULL_BATCH_H_

#include <cstdint>
#include <vector>

#include "core/batch_source.h"
#include "core/metrics.h"
#include "core/trainer.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"

namespace gnndm {

/// Full-batch (full-graph) training in the style of NeuGraph / ROC /
/// Sancus (§6.2): every vertex participates in every step over the FULL
/// adjacency (no sampling), the loss is masked to the training vertices,
/// and parameters update once per epoch. The paper's contrast: cheap
/// per-update bookkeeping but one update per epoch, activations for the
/// whole graph resident in GPU memory, and poor scalability — which is
/// why sample-based mini-batch training won (§6.2).
///
/// An epoch is one batch, FullGraphBatch, to the shared TrainerBase
/// machinery: one StageTimes / BatchAttribution record under the same
/// trainer.epoch, trainer.nn and trainer.optimizer spans as a mini-batch
/// step, closed through the same pipeline schedule and attribution.
class FullBatchTrainer : public TrainerBase {
 public:
  /// Uses `config.model`, dims, learning rate, num_threads and pipeline;
  /// batch-selection, sampling and cache fields are ignored (full batch
  /// has none), but `config.hops` must still match the model's hops.
  FullBatchTrainer(const Dataset& dataset, const TrainerConfig& config);

  /// One full-graph forward/backward/update. EpochStats fields:
  /// batch_prep is 0 (no sampling), transfer covers the one-time feature
  /// residency amortized per epoch, involved counts are |V| and |E| per
  /// layer.
  EpochStats TrainEpoch();

  /// Full-graph inference: one forward over every vertex, read out at
  /// `vertices`.
  ClassificationMetrics EvaluateDetailed(
      const std::vector<VertexId>& vertices) override;

  /// Estimated peak device memory: features + per-layer activations for
  /// the entire graph — the full-batch scalability bottleneck.
  uint64_t PeakMemoryBytes() const;

 protected:
  double RunEpoch() override { return TrainEpoch().train_loss; }

 private:
  PreparedBatch full_graph_;  // identity levels + full adjacency
};

}  // namespace gnndm

#endif  // GNNDM_CORE_FULL_BATCH_H_
