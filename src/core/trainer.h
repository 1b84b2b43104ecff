#ifndef GNNDM_CORE_TRAINER_H_
#define GNNDM_CORE_TRAINER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "batch/batch_schedule.h"
#include "batch/batch_selector.h"
#include "common/rng.h"
#include "core/attribution.h"
#include "core/batch_consumer.h"
#include "core/batch_source.h"
#include "core/convergence.h"
#include "core/metrics.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "sampling/neighbor_sampler.h"
#include "transfer/device_model.h"
#include "transfer/feature_cache.h"
#include "transfer/pipeline.h"
#include "transfer/transfer_engine.h"

namespace gnndm {

/// Everything configurable about a single-worker training run — one knob
/// per technique the paper evaluates.
struct TrainerConfig {
  // Model (§4: GCN / GraphSage, hidden 128 scaled down).
  std::string model = "gcn";
  size_t hidden_dim = 32;
  uint32_t num_conv_layers = 2;
  uint32_t num_mlp_layers = 2;
  double dropout = 0.1;
  float learning_rate = 0.01f;
  float weight_decay = 0.0f;  ///< decoupled L2 (AdamW-style)

  // Batch preparation (§6).
  uint32_t batch_size = 512;
  std::vector<HopSpec> hops = {HopSpec::Fanout(25), HopSpec::Fanout(10)};
  /// "random" or "cluster".
  std::string batch_selector = "random";
  uint32_t cluster_count = 32;  ///< clusters when batch_selector=="cluster"
  /// Optional adaptive batch size (overrides batch_size when set).
  bool adaptive_batch = false;
  uint32_t adaptive_initial = 128;
  uint32_t adaptive_max = 4096;
  double adaptive_growth = 2.0;
  uint32_t adaptive_epochs_per_step = 3;

  // Data transferring (§7).
  std::string transfer = "extract-load";  ///< "zero-copy", "hybrid"
  PipelineMode pipeline = PipelineMode::kNone;
  /// Producer workers for the batch data plane: 0 = prepare batches
  /// inline on the training thread, N >= 1 = an AsyncBatchSource with N
  /// background sampler/gather workers — the host-side mechanism behind
  /// pipeline overlap (DGL/GNNLab dataloader workers). Single-worker and
  /// distributed training alike draw their batches from it, and output
  /// is byte-identical at any worker count and queue depth (the
  /// BatchSource determinism contract), so both are pure throughput
  /// knobs.
  size_t loader_workers = 0;
  size_t async_queue_depth = 4;
  /// "none", "degree", or "presample".
  std::string cache_policy = "none";
  double cache_ratio = 0.0;  ///< fraction of vertices cached on GPU
  /// Distributed-only: P3-style hybrid parallelism [10] — remote vertices
  /// contribute layer-1 *partial activations* (hidden_dim floats) over
  /// the network instead of raw feature rows. Pays off exactly when
  /// hidden_dim < feature_dim.
  bool p3_feature_parallel = false;
  DeviceModel device;

  /// Compute threads for the ParallelFor kernel layer (matmul,
  /// aggregation, gather). 0 = leave the process-wide setting alone
  /// (GNNDM_THREADS env or hardware concurrency); 1 = force serial.
  /// Kernels are byte-identical at any value, so this is a pure
  /// throughput knob.
  size_t num_threads = 0;

  uint64_t seed = 11;
};

/// Per-epoch accounting (virtual time + data-management volumes).
struct EpochStats {
  uint32_t epoch = 0;
  uint32_t batch_size = 0;
  double train_loss = 0.0;
  /// Virtual wall time of the epoch after pipeline scheduling.
  double epoch_seconds = 0.0;
  /// Per-stage busy totals (the Fig 2 breakdown).
  double batch_prep_seconds = 0.0;
  double extract_seconds = 0.0;
  double load_seconds = 0.0;
  double nn_seconds = 0.0;
  /// Data-management volumes.
  uint64_t involved_vertices = 0;  ///< Table 6 "Involved #V"
  uint64_t involved_edges = 0;     ///< Table 6 "Involved #E"
  uint64_t bytes_transferred = 0;
  uint64_t rows_from_cache = 0;
  uint64_t rows_requested = 0;
  /// Stall attribution for this epoch (core/attribution.h). Its virtual
  /// stage sums reconcile bit-exact with the fields above:
  /// attribution.sample == batch_prep_seconds, .extract ==
  /// extract_seconds, .load == load_seconds, .compute == nn_seconds
  /// (asserted by attribution_test).
  EpochAttribution attribution;
};

/// What Trainer, DistTrainer and FullBatchTrainer share. The constructor
/// builds, the same way for all three, everything a TrainerConfig
/// determines: the process-wide compute-thread count, the sampler, the
/// model and its Adam optimizer, the transfer engine, and the
/// BatchConsumer tail over them. The mini-batch trainers draw every
/// epoch's batches from one BatchSource (EpochSource) and evaluate
/// through BatchConsumer::Evaluate; every trainer closes each epoch
/// through FinishEpoch and converges through the one TrainToConvergence.
class TrainerBase {
 public:
  /// Trains until Converged(patience) or `max_epochs`, recording the
  /// validation trajectory. Returns the tracker.
  const ConvergenceTracker& TrainToConvergence(uint32_t max_epochs,
                                               uint32_t patience = 10);

  /// Accuracy over `vertices` (e.g. the val split):
  /// EvaluateDetailed(vertices).Accuracy().
  double Evaluate(const std::vector<VertexId>& vertices);

  /// Full per-class metrics (confusion matrix, precision/recall/F1) over
  /// `vertices` — the machinery behind Table 7-style breakdowns. Sampled
  /// inference through BatchConsumer::Evaluate unless a trainer infers
  /// otherwise.
  virtual ClassificationMetrics EvaluateDetailed(
      const std::vector<VertexId>& vertices);

  /// The model being trained: what a checkpoint saves and restores.
  GnnModel& model() { return *model_; }
  const ConvergenceTracker& tracker() const { return tracker_; }
  /// Per-epoch stall attribution, one entry per TrainEpoch call in order
  /// (feeds the --report table and the steady-state verdict).
  const std::vector<EpochAttribution>& attribution_history() const {
    return attribution_history_;
  }
  /// The last epoch's per-batch stall-attribution records, in delivery
  /// order.
  const std::vector<BatchAttribution>& last_epoch_batches() const {
    return last_epoch_batches_;
  }
  double total_virtual_seconds() const { return total_seconds_; }

 protected:
  /// `dataset` must outlive the trainer.
  TrainerBase(const Dataset& dataset, const TrainerConfig& config);

  /// The feature cache config_.cache_policy names, populated from
  /// `train`; the presample policy profiles `presample_batches` batches
  /// drawn from Rng(presample_seed). Empty (every row a miss) when
  /// uncached.
  FeatureCache BuildCache(const std::vector<VertexId>& train,
                          uint32_t presample_batches,
                          uint64_t presample_seed) const;

  /// This epoch's batch plane over `batches`, in consumption order: batch
  /// i draws from Rng(BatchRngSeed(seed ^ (0xA51C + epoch), i)), prepared
  /// by config_.loader_workers producers (0 = inline), which stage the
  /// input rows only when the transfer engine extracts.
  std::unique_ptr<BatchSource> EpochSource(
      std::vector<std::vector<VertexId>> batches) const;

  /// One training epoch, as TrainToConvergence runs it: returns the
  /// epoch's training loss.
  virtual double RunEpoch() = 0;

  /// Closes an epoch: aggregates `batches` (delivery order) into its
  /// stall attribution, records it and `batches`, publishes it, and
  /// advances the virtual clock and the epoch counter.
  EpochAttribution FinishEpoch(const std::vector<BatchAttribution>& batches,
                               double epoch_seconds);

  /// Closes a single-device epoch whose batches took `stage_times` and
  /// left `batches` (both in delivery order): schedules them through
  /// config_.pipeline into stats' epoch, batch-prep and NN seconds,
  /// replays the schedule as virtual spans, and finishes the epoch into
  /// stats.attribution.
  void ClosePipelinedEpoch(const std::vector<StageTimes>& stage_times,
                           const std::vector<BatchAttribution>& batches,
                           EpochStats& stats);

  const Dataset& dataset_;
  TrainerConfig config_;
  Rng rng_;
  NeighborSampler sampler_;
  std::unique_ptr<GnnModel> model_;
  std::unique_ptr<Optimizer> optimizer_;
  std::unique_ptr<TransferEngine> transfer_;
  std::unique_ptr<BatchConsumer> consumer_;
  ConvergenceTracker tracker_;
  std::vector<EpochAttribution> attribution_history_;
  std::vector<BatchAttribution> last_epoch_batches_;
  double total_seconds_ = 0.0;
  uint32_t epoch_ = 0;
};

/// End-to-end single-worker mini-batch GNN trainer: batch selection →
/// L-hop sampling → feature transfer (simulated device) → real NN
/// forward/backward → optimizer step, with per-stage accounting.
class Trainer : public TrainerBase {
 public:
  /// `dataset` must outlive the trainer.
  Trainer(const Dataset& dataset, const TrainerConfig& config);

  /// Runs one epoch over the training split; returns its stats and
  /// appends virtual time to the cumulative clock.
  EpochStats TrainEpoch();

  uint32_t epochs_run() const { return epoch_; }

  /// Per-degree-class accuracy (Table 7): evaluates `vertices` split at
  /// the median degree. Returns {low_acc, high_acc}.
  std::pair<double, double> EvaluateByDegree(
      const std::vector<VertexId>& vertices);

 protected:
  double RunEpoch() override { return TrainEpoch().train_loss; }

 private:
  /// Consumes one prepared batch through the shared BatchConsumer tail,
  /// steps the optimizer, and folds the outcome into `stats`; `attrib`
  /// receives the batch's stall-attribution record.
  StageTimes ConsumeTrainingBatch(const PreparedBatch& batch,
                                  EpochStats& stats,
                                  BatchAttribution& attrib);

  std::unique_ptr<BatchSelector> selector_;
  std::unique_ptr<BatchSizeSchedule> schedule_;
  FeatureCache cache_;
};

}  // namespace gnndm

#endif  // GNNDM_CORE_TRAINER_H_
