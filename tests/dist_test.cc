#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/convergence.h"
#include "core/trainer.h"
#include "dist/dist_trainer.h"
#include "dist/network_model.h"
#include "graph/dataset.h"
#include "partition/hash_partitioner.h"
#include "partition/metis_partitioner.h"
#include "partition/partitioner.h"
#include "partition/stream_partitioner.h"
#include "sampling/neighbor_sampler.h"
#include "transfer/pipeline.h"

namespace gnndm {
namespace {

class DistTrainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<Dataset> ds = LoadDataset("arxiv_s", 7);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::move(ds).value();
  }
  TrainerConfig SmallConfig() {
    TrainerConfig config;
    config.hidden_dim = 16;
    config.batch_size = 256;
    config.hops = {HopSpec::Fanout(5), HopSpec::Fanout(5)};
    config.seed = 3;
    return config;
  }
  PartitionInput Input() const { return {dataset_.graph, dataset_.split}; }
  Dataset dataset_;
};

TEST(NetworkModelTest, SecondsScaleWithBytesAndRequests) {
  NetworkModel network;
  EXPECT_DOUBLE_EQ(network.Seconds(0, 0), 0.0);
  EXPECT_NEAR(network.Seconds(1'250'000'000ull, 0), 1.0, 1e-9);
  EXPECT_NEAR(network.Seconds(0, 10), 10 * network.request_latency_sec,
              1e-12);
}

TEST_F(DistTrainerTest, EpochRunsAndTracksWorkers) {
  HashPartitioner hash;
  PartitionResult partition = hash.Partition(Input(), 4, 1);
  DistTrainer trainer(dataset_, partition, SmallConfig());
  EXPECT_EQ(trainer.num_workers(), 4u);
  DistEpochStats stats = trainer.TrainEpoch();
  EXPECT_GT(stats.epoch_seconds, 0.0);
  ASSERT_EQ(stats.workers.size(), 4u);
  for (const WorkerStats& w : stats.workers) {
    EXPECT_GT(w.batches, 0u);
    EXPECT_GT(w.seconds, 0.0);
  }
  EXPECT_GT(stats.train_loss, 0.0);
}

TEST_F(DistTrainerTest, ModelLearnsUnderPartitionedTraining) {
  MetisPartitioner metis(MetisMode::kVET);
  PartitionResult partition = metis.Partition(Input(), 4, 2);
  DistTrainer trainer(dataset_, partition, SmallConfig());
  for (int e = 0; e < 15; ++e) trainer.TrainEpoch();
  double acc = trainer.Evaluate(dataset_.split.val);
  EXPECT_GT(acc, 2.0 / dataset_.num_classes);
}

TEST_F(DistTrainerTest, HashMovesMoreRemoteBytesThanMetis) {
  HashPartitioner hash;
  MetisPartitioner metis(MetisMode::kV);
  auto remote_bytes = [&](const PartitionResult& partition) {
    DistTrainer trainer(dataset_, partition, SmallConfig());
    DistEpochStats stats = trainer.TrainEpoch();
    uint64_t total = 0;
    for (const WorkerStats& w : stats.workers) {
      total += w.remote_feature_bytes + w.remote_structure_bytes;
    }
    return total;
  };
  EXPECT_GT(remote_bytes(hash.Partition(Input(), 4, 3)),
            remote_bytes(metis.Partition(Input(), 4, 3)));
}

TEST_F(DistTrainerTest, StreamVHasNoRemoteTraffic) {
  StreamVPartitioner stream(2);
  PartitionResult partition = stream.Partition(Input(), 4, 4);
  DistTrainer trainer(dataset_, partition, SmallConfig());
  DistEpochStats stats = trainer.TrainEpoch();
  for (const WorkerStats& w : stats.workers) {
    EXPECT_EQ(w.remote_feature_bytes, 0u);
    EXPECT_EQ(w.remote_structure_bytes, 0u);
  }
}

TEST_F(DistTrainerTest, ConvergenceTrackerFillsHistory) {
  HashPartitioner hash;
  PartitionResult partition = hash.Partition(Input(), 2, 5);
  DistTrainer trainer(dataset_, partition, SmallConfig());
  const ConvergenceTracker& tracker =
      trainer.TrainToConvergence(/*max_epochs=*/3, /*patience=*/10);
  EXPECT_EQ(tracker.history().size(), 3u);
  EXPECT_GT(trainer.total_virtual_seconds(), 0.0);
}

TEST_F(DistTrainerTest, PerWorkerCacheReducesTransferTime) {
  HashPartitioner hash;
  PartitionResult partition = hash.Partition(Input(), 4, 8);
  TrainerConfig uncached = SmallConfig();
  TrainerConfig cached = SmallConfig();
  cached.cache_policy = "presample";
  cached.cache_ratio = 0.3;
  DistTrainer a(dataset_, partition, uncached);
  DistTrainer b(dataset_, partition, cached);
  DistEpochStats ea = a.TrainEpoch();
  DistEpochStats eb = b.TrainEpoch();
  uint64_t cached_hits = 0;
  for (const WorkerStats& w : eb.workers) cached_hits += w.rows_from_cache;
  EXPECT_GT(cached_hits, 0u);
  EXPECT_LT(eb.epoch_seconds, ea.epoch_seconds);
}

TEST_F(DistTrainerTest, P3FeatureParallelCutsRemoteBytes) {
  // arxiv_s has 32-dim features; with hidden 16, P3 mode ships 16-float
  // partial activations instead of 32-float rows: half the feature
  // traffic (structure traffic unchanged).
  HashPartitioner hash;
  PartitionResult partition = hash.Partition(Input(), 4, 9);
  TrainerConfig plain = SmallConfig();
  TrainerConfig p3 = SmallConfig();
  p3.p3_feature_parallel = true;
  DistTrainer a(dataset_, partition, plain);
  DistTrainer b(dataset_, partition, p3);
  DistEpochStats ea = a.TrainEpoch();
  DistEpochStats eb = b.TrainEpoch();
  uint64_t plain_feat = 0, p3_feat = 0;
  for (uint32_t w = 0; w < 4; ++w) {
    plain_feat += ea.workers[w].remote_feature_bytes;
    p3_feat += eb.workers[w].remote_feature_bytes;
  }
  EXPECT_GT(plain_feat, 0u);
  EXPECT_NEAR(static_cast<double>(p3_feat),
              static_cast<double>(plain_feat) / 2.0,
              plain_feat * 0.05);
  EXPECT_LT(eb.epoch_seconds, ea.epoch_seconds);
}

TEST_F(DistTrainerTest, PerWorkerPipelineShortensEpoch) {
  HashPartitioner hash;
  PartitionResult partition = hash.Partition(Input(), 4, 10);
  TrainerConfig no_pipe = SmallConfig();
  TrainerConfig bp = SmallConfig();
  bp.pipeline = PipelineMode::kOverlapBp;
  TrainerConfig full = SmallConfig();
  full.pipeline = PipelineMode::kOverlapBpDt;
  double t_none =
      DistTrainer(dataset_, partition, no_pipe).TrainEpoch().epoch_seconds;
  double t_bp =
      DistTrainer(dataset_, partition, bp).TrainEpoch().epoch_seconds;
  double t_full =
      DistTrainer(dataset_, partition, full).TrainEpoch().epoch_seconds;
  EXPECT_LT(t_bp, t_none);
  EXPECT_LE(t_full, t_bp);
}

// The BatchSource contract reaches distributed training: one source
// prepares every worker's batches, so the epoch ledgers and the trained
// model are bit-identical whether batches are prepared inline or by 1 or
// 4 producer workers.
TEST_F(DistTrainerTest, LoaderWorkersAreByteIdentical) {
  MetisPartitioner metis(MetisMode::kVET);
  PartitionResult partition = metis.Partition(Input(), 4, 12);
  struct Run {
    std::vector<DistEpochStats> epochs;
    double val_accuracy = 0.0;
  };
  auto run = [&](const char* transfer, size_t loader_workers) {
    TrainerConfig config = SmallConfig();
    config.cache_policy = "presample";
    config.cache_ratio = 0.2;
    config.transfer = transfer;
    config.loader_workers = loader_workers;
    config.async_queue_depth = 2;
    DistTrainer trainer(dataset_, partition, config);
    Run out;
    for (int e = 0; e < 2; ++e) out.epochs.push_back(trainer.TrainEpoch());
    out.val_accuracy = trainer.Evaluate(dataset_.split.val);
    return out;
  };
  // Extract-load producers sample and stage the rows; zero-copy
  // producers only sample, and the first layer reads the rows in place,
  // training the same model.
  std::vector<double> staged_losses;
  for (const char* transfer : {"extract-load", "zero-copy"}) {
    const Run inline_run = run(transfer, 0);
    std::vector<double> losses;
    for (const DistEpochStats& epoch : inline_run.epochs) {
      losses.push_back(epoch.train_loss);
    }
    losses.push_back(inline_run.val_accuracy);
    if (staged_losses.empty()) staged_losses = losses;
    EXPECT_EQ(losses, staged_losses) << transfer;
    for (size_t loader_workers : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(std::string(transfer) +
                   " loader_workers=" + std::to_string(loader_workers));
      const Run async_run = run(transfer, loader_workers);
      ASSERT_EQ(async_run.epochs.size(), inline_run.epochs.size());
      for (size_t e = 0; e < inline_run.epochs.size(); ++e) {
        const DistEpochStats& a = inline_run.epochs[e];
        const DistEpochStats& b = async_run.epochs[e];
        EXPECT_EQ(a.epoch, b.epoch);
        EXPECT_EQ(a.train_loss, b.train_loss);
        EXPECT_EQ(a.epoch_seconds, b.epoch_seconds);
        ASSERT_EQ(a.workers.size(), b.workers.size());
        for (size_t w = 0; w < a.workers.size(); ++w) {
          EXPECT_EQ(a.workers[w].seconds, b.workers[w].seconds) << w;
          EXPECT_EQ(a.workers[w].remote_feature_bytes,
                    b.workers[w].remote_feature_bytes) << w;
          EXPECT_EQ(a.workers[w].remote_structure_bytes,
                    b.workers[w].remote_structure_bytes) << w;
          EXPECT_EQ(a.workers[w].batches, b.workers[w].batches) << w;
          EXPECT_EQ(a.workers[w].sampled_edges, b.workers[w].sampled_edges)
              << w;
          EXPECT_EQ(a.workers[w].rows_from_cache, b.workers[w].rows_from_cache)
              << w;
        }
        EXPECT_EQ(a.attribution.batches, b.attribution.batches);
        EXPECT_EQ(a.attribution.sample, b.attribution.sample);
        EXPECT_EQ(a.attribution.extract, b.attribution.extract);
        EXPECT_EQ(a.attribution.load, b.attribution.load);
        EXPECT_EQ(a.attribution.compute, b.attribution.compute);
        EXPECT_EQ(a.attribution.pipeline_seconds,
                  b.attribution.pipeline_seconds);
      }
      EXPECT_EQ(async_run.val_accuracy, inline_run.val_accuracy);
    }
  }
}

TEST_F(DistTrainerTest, SlowNetworkLengthensEpoch) {
  HashPartitioner hash;
  PartitionResult partition = hash.Partition(Input(), 4, 6);
  NetworkModel fast;
  NetworkModel slow;
  slow.bandwidth_bytes_per_sec = fast.bandwidth_bytes_per_sec / 100.0;
  DistTrainer fast_trainer(dataset_, partition, SmallConfig(), fast);
  DistTrainer slow_trainer(dataset_, partition, SmallConfig(), slow);
  EXPECT_LT(fast_trainer.TrainEpoch().epoch_seconds,
            slow_trainer.TrainEpoch().epoch_seconds);
}

}  // namespace
}  // namespace gnndm
