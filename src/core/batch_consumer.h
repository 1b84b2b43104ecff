#ifndef GNNDM_CORE_BATCH_CONSUMER_H_
#define GNNDM_CORE_BATCH_CONSUMER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/attribution.h"
#include "core/batch_source.h"
#include "core/metrics.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "nn/model.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/tensor.h"
#include "transfer/device_model.h"
#include "transfer/feature_cache.h"
#include "transfer/pipeline.h"
#include "transfer/transfer_engine.h"

namespace gnndm {

/// Everything one consumed batch contributes to the epoch ledgers —
/// callers fold these into their own stats (EpochStats, WorkerStats)
/// rather than each re-deriving them.
struct ConsumeOutcome {
  StageTimes times;        ///< batch_prep / extract / load / nn, virtual
  TransferStats transfer;  ///< volumes + cache split for this batch
  double loss_sum = 0.0;   ///< batch loss * |seeds| (callers normalize)
  uint64_t involved_vertices = 0;
  uint64_t involved_edges = 0;
};

/// The shared tail of the batch pipeline: transfer/cache accounting, NN
/// forward/backward, and per-stage virtual-time attribution, plus the
/// forward-only inference pass. Exactly one definition of this math
/// exists — Trainer, DistTrainer, and the bench binaries all consume
/// PreparedBatches through here. The first layer reads a batch's staged
/// input rows when its source staged them (an engine that extracts), and
/// the feature rows in place otherwise. DistTrainer serves all its
/// simulated workers from one consumer, each worker passing its own
/// cache.
///
/// The consumer accumulates gradients into the model but never steps the
/// optimizer: single-worker training steps per batch, synchronous data
/// parallelism steps at the round barrier — that policy stays with the
/// callers.
class BatchConsumer {
 public:
  /// References must outlive the consumer. `num_mlp_layers` etc. mirror
  /// the TrainerConfig fields the stage math needs (kept as scalars so
  /// dist and single-worker trainers can share one consumer type without
  /// a config dependency cycle).
  BatchConsumer(const Dataset& dataset, const DeviceModel& device,
                const TransferEngine& transfer, GnnModel& model,
                size_t hidden_dim, uint32_t num_conv_layers,
                uint32_t num_mlp_layers);

  /// Consumes one prepared batch: transfer accounting, forward/backward,
  /// and stage-time attribution. `cache` may be null; with multiple dist
  /// workers each passes its own. When `attrib` is non-null it receives
  /// this batch's stall-attribution record (virtual stage seconds from
  /// the outcome, producer/consumer wall seconds from the batch, and the
  /// `trainer.nn` span's seconds as wall_compute); the caller's
  /// `trainer.optimizer` span adds wall_optimizer.
  ConsumeOutcome Consume(const PreparedBatch& batch,
                         const FeatureCache* cache,
                         BatchAttribution* attrib = nullptr);

  /// Forward-only sampled inference: predicts `vertices` in batches of
  /// 1024, each sampled with `sampler` drawing from `rng` (null sampler:
  /// the batch is its seed rows, the MLP/DNN baseline) and its input rows
  /// gathered if the engine extracts, read in place if not, and records
  /// every (prediction, label) pair in `metrics`.
  void Evaluate(const std::vector<VertexId>& vertices,
                const NeighborSampler* sampler, Rng& rng,
                ClassificationMetrics& metrics);

 private:
  const Dataset& dataset_;
  DeviceModel device_;
  const TransferEngine& transfer_;
  GnnModel& model_;
  size_t hidden_dim_;
  uint32_t num_conv_layers_;
  uint32_t num_mlp_layers_;
  // Per-batch scratch, refilled by every Consume/Evaluate call instead of
  // allocated per batch (hot-path-alloc). A consumer is driven by one
  // thread, so member scratch is race-free.
  std::vector<int32_t> labels_scratch_;
  Tensor d_logits_scratch_;
  std::vector<VertexId> eval_seeds_;
  SampledSubgraph eval_subgraph_;
  Tensor eval_input_;
  std::vector<int32_t> eval_preds_;
};

}  // namespace gnndm

#endif  // GNNDM_CORE_BATCH_CONSUMER_H_
