#ifndef TRAINBENCH_WORKLOADS_H_
#define TRAINBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "dist/dist_trainer.h"
#include "graph/dataset.h"
#include "partition/partitioner.h"
#include "spans.h"

namespace trainbench {

/// One benchmark workload: a fixed training configuration over the
/// generated input. README.md in this directory records why each exists.
struct Workload {
  std::string name;
  uint32_t feature_dim = 32;
  gnndm::TrainerConfig config;
  /// 0: single-worker gnndm::Trainer. N > 1: gnndm::DistTrainer with N
  /// simulated workers over a Metis-VET partition.
  uint32_t dist_workers = 0;
  /// Validation accuracy the run must reach; time_to_target_s measures
  /// the wall time until it first does. It sits just below the lowest
  /// epoch-0 accuracy of the seeds tried, so every seed first reaches it
  /// after the same epoch (README.md, "time_to_target_s").
  double target_val_acc = 0.0;
};

/// Epochs each session of an untraced run trains. An untraced run repeats
/// sessions (set-up from the input file, then these epochs) until
/// --seconds is spent; the count is fixed so that a seed always trains
/// the same epochs and final_val_acc is deterministic.
constexpr uint32_t kSessionEpochs = 3;
/// Leading epochs of each session left out of epoch_s/eval_s.
constexpr uint32_t kWarmupEpochs = 1;

/// The workloads by name; nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);

/// The benchmark input, deterministic in `seed`: a power-law community
/// graph of 100k vertices and ~1.46M adjacency entries, community labels,
/// label-correlated features of `feature_dim` floats, 40% of vertices
/// labeled and split 65:10:25.
gnndm::Dataset GenerateInput(uint32_t feature_dim, uint64_t seed);

/// Model shape the trainers derive from a config and dataset.
gnndm::ModelConfig ModelConfigFor(const gnndm::TrainerConfig& config,
                                  const gnndm::Dataset& dataset);

/// One set-up of a workload: the loaded input, its partition when
/// distributed, and a trainer ready for its first batch.
class Session {
 public:
  /// Loads `path`, partitions when distributed and builds the trainer.
  /// `setup_seconds` receives the wall time of those three steps; the
  /// output checks (CsrGraph and PartitionResult validation) run outside
  /// it, and the first one that fails is written to `check`. With a
  /// recorder, the load and the partition are also recorded as spans.
  static std::unique_ptr<Session> Open(const Workload& workload,
                                       const std::string& path,
                                       SpanRecorder* recorder,
                                       double& setup_seconds,
                                       std::string& check);

  /// Trains one epoch; returns its mean training loss.
  double TrainEpoch();
  /// Validation accuracy over split.val.
  double EvaluateVal();

  const gnndm::Dataset& dataset() const { return *dataset_; }
  const gnndm::PartitionResult& partition() const { return partition_; }
  /// Batches trained in the last epoch.
  uint64_t last_epoch_batches() const { return last_batches_; }
  /// Stats of the last distributed epoch (empty when single-worker).
  const gnndm::DistEpochStats& last_dist_stats() const {
    return last_dist_;
  }

 private:
  std::unique_ptr<gnndm::Dataset> dataset_;
  gnndm::PartitionResult partition_;
  std::unique_ptr<gnndm::Trainer> single_;
  std::unique_ptr<gnndm::DistTrainer> dist_;
  gnndm::DistEpochStats last_dist_;
  uint64_t last_batches_ = 0;
};

}  // namespace trainbench

#endif  // TRAINBENCH_WORKLOADS_H_
