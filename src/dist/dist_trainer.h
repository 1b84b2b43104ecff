#ifndef GNNDM_DIST_DIST_TRAINER_H_
#define GNNDM_DIST_DIST_TRAINER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/attribution.h"
#include "core/batch_source.h"
#include "core/trainer.h"
#include "dist/network_model.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "partition/partitioner.h"
#include "transfer/feature_cache.h"

namespace gnndm {

/// Cumulative per-worker ledger across an epoch.
struct WorkerStats {
  double seconds = 0.0;  ///< virtual busy time (compute + comm + transfer)
  uint64_t remote_feature_bytes = 0;
  uint64_t remote_structure_bytes = 0;
  uint64_t batches = 0;
  uint64_t sampled_edges = 0;
  uint64_t rows_from_cache = 0;  ///< per-worker GPU cache hits
};

/// Per-epoch summary of a distributed run.
struct DistEpochStats {
  uint32_t epoch = 0;
  double train_loss = 0.0;
  /// Synchronous data-parallel epoch time: sum over rounds of the
  /// slowest worker's round time (barrier per model update).
  double epoch_seconds = 0.0;
  std::vector<WorkerStats> workers;
  /// Stall attribution over every worker batch this epoch, in execution
  /// order (round-major, the order the epoch's one BatchSource delivers
  /// them in). Network seconds fold into the sample stage — the same
  /// `prep = batch_prep + network` the round math uses. The wall fields
  /// come from the BatchSource like a single-worker epoch's, so with
  /// loader_workers > 0 the verdict can be loader-starved, and with
  /// telemetry on a batch-prep verdict splits into sample- vs
  /// gather-bound.
  EpochAttribution attribution;
};

/// Simulated synchronous data-parallel mini-batch GNN training over the
/// workers defined by a PartitionResult. Each worker trains only on the
/// training vertices its partition owns (so partitioning bias reaches
/// batch composition, the effect behind Fig 7 / Table 4); remote L-hop
/// expansions and feature fetches are charged to the network model, with
/// PaGraph-style halos counting as local. Gradients are averaged across
/// workers every round, matching DistDGL-style training. Every worker's
/// batches come from the epoch's one BatchSource, as a Trainer's do.
class DistTrainer : public TrainerBase {
 public:
  DistTrainer(const Dataset& dataset, const PartitionResult& partition,
              const TrainerConfig& config, const NetworkModel& network = {});

  DistEpochStats TrainEpoch();

  uint32_t num_workers() const { return partition_.num_parts; }

 protected:
  double RunEpoch() override { return TrainEpoch().train_loss; }

 private:
  struct Worker {
    std::vector<VertexId> local_train;
    /// Per-worker GPU feature cache (SALIENT++/Legion combine distributed
    /// training with caching); built from the worker's own training
    /// vertices when config.cache_policy is set.
    FeatureCache cache;
    /// Draws the worker's batch selection; sampling draws from the
    /// BatchSource's per-batch streams.
    Rng rng{0};
  };

  /// Trains one prepared batch on `worker`: charges its remote traffic to
  /// the network model, accumulates into the shared model's gradients (no
  /// step), appends the batch's stall-attribution record to `attribs`,
  /// and returns the worker's virtual batch time.
  double RunWorkerBatch(uint32_t worker, const PreparedBatch& batch,
                        DistEpochStats& stats, double& loss_sum,
                        std::vector<BatchAttribution>& attribs);

  PartitionResult partition_;
  NetworkModel network_;
  std::vector<Worker> workers_;
};

}  // namespace gnndm

#endif  // GNNDM_DIST_DIST_TRAINER_H_
