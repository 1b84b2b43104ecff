#include <gtest/gtest.h>

#include "common/parallel_for.h"
#include "core/full_batch.h"
#include "core/metrics.h"
#include "core/trainer.h"
#include "graph/dataset.h"
#include "partition/analyzer.h"
#include "partition/hash_partitioner.h"
#include "partition/partitioner.h"
#include "partition/stream_partitioner.h"
#include "sampling/neighbor_sampler.h"

namespace gnndm {
namespace {

class FullBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<Dataset> ds = LoadDataset("arxiv_s", 9);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::move(ds).value();
    config_.hidden_dim = 16;
    config_.seed = 10;
  }
  Dataset dataset_;
  TrainerConfig config_;
};

TEST_F(FullBatchTest, EpochUpdatesOnceAndTracksFullGraph) {
  FullBatchTrainer trainer(dataset_, config_);
  EpochStats stats = trainer.TrainEpoch();
  EXPECT_EQ(stats.batch_size, dataset_.graph.num_vertices());
  // Involved edges = full adjacency per conv layer.
  EXPECT_EQ(stats.involved_edges,
            dataset_.graph.num_edges() * config_.num_conv_layers);
  EXPECT_EQ(stats.batch_prep_seconds, 0.0);  // no sampling
  EXPECT_GT(stats.epoch_seconds, 0.0);
}

TEST_F(FullBatchTest, LossDecreasesOverEpochs) {
  FullBatchTrainer trainer(dataset_, config_);
  double first = trainer.TrainEpoch().train_loss;
  double last = 0.0;
  for (int e = 0; e < 20; ++e) last = trainer.TrainEpoch().train_loss;
  EXPECT_LT(last, first);
}

TEST_F(FullBatchTest, LearnsAboveChance) {
  FullBatchTrainer trainer(dataset_, config_);
  trainer.TrainToConvergence(/*max_epochs=*/40, /*patience=*/10);
  EXPECT_GT(trainer.tracker().BestAccuracy(),
            2.0 / dataset_.num_classes);
}

// The constructor is TrainerBase's, so the kernel-threading knob takes
// effect for full-graph training as it does for the mini-batch trainers.
TEST_F(FullBatchTest, AppliesNumThreads) {
  SetComputeThreads(2);
  TrainerConfig config = config_;
  config.num_threads = 1;
  FullBatchTrainer trainer(dataset_, config);
  EXPECT_EQ(ComputeThreads(), 1u);
  SetComputeThreads(0);  // back to the environment/hardware default
}

// Full-graph inference is deterministic, so Evaluate and the detailed
// metrics read the same accuracy.
TEST_F(FullBatchTest, EvaluateAgreesWithEvaluateDetailed) {
  FullBatchTrainer trainer(dataset_, config_);
  trainer.TrainEpoch();
  const ClassificationMetrics metrics =
      trainer.EvaluateDetailed(dataset_.split.val);
  EXPECT_EQ(metrics.total(), dataset_.split.val.size());
  EXPECT_EQ(metrics.Accuracy(), trainer.Evaluate(dataset_.split.val));
  EXPECT_EQ(trainer.EvaluateDetailed({}).total(), 0u);
}

TEST_F(FullBatchTest, PeakMemoryScalesWithGraph) {
  FullBatchTrainer trainer(dataset_, config_);
  const uint64_t mem = trainer.PeakMemoryBytes();
  // At least the full feature matrix must be resident.
  EXPECT_GE(mem, static_cast<uint64_t>(dataset_.graph.num_vertices()) *
                     dataset_.features.BytesPerVertex());
}

TEST_F(FullBatchTest, MiniBatchUpdatesMoreOftenPerEpoch) {
  // The §6.2 contrast: same epoch count, mini-batch should make faster
  // training-loss progress thanks to multiple updates per epoch.
  FullBatchTrainer full(dataset_, config_);
  TrainerConfig mini_config = config_;
  mini_config.batch_size = 256;
  mini_config.hops = {HopSpec::Fanout(10), HopSpec::Fanout(5)};
  Trainer mini(dataset_, mini_config);
  double full_loss = 0.0, mini_loss = 0.0;
  for (int e = 0; e < 8; ++e) {
    full_loss = full.TrainEpoch().train_loss;
    mini_loss = mini.TrainEpoch().train_loss;
  }
  EXPECT_LT(mini_loss, full_loss);
}

TEST(StorageReportTest, NoHaloMeansNoReplication) {
  Result<Dataset> ds = LoadDataset("arxiv_s", 11);
  ASSERT_TRUE(ds.ok());
  HashPartitioner hash;
  PartitionResult partition =
      hash.Partition({ds->graph, ds->split}, 4, 12);
  StorageReport report = AnalyzeStorage(ds->graph, partition, 128);
  EXPECT_DOUBLE_EQ(report.replication_factor, 1.0);
  uint64_t owned = 0;
  for (const auto& m : report.machines) {
    owned += m.owned_vertices;
    EXPECT_EQ(m.halo_vertices, 0u);
    EXPECT_EQ(m.feature_bytes, m.owned_vertices * 128);
  }
  EXPECT_EQ(owned, ds->graph.num_vertices());
}

TEST(StorageReportTest, StreamVReplicates) {
  Result<Dataset> ds = LoadDataset("arxiv_s", 13);
  ASSERT_TRUE(ds.ok());
  StreamVPartitioner stream(2);
  PartitionResult partition =
      stream.Partition({ds->graph, ds->split}, 4, 14);
  StorageReport report = AnalyzeStorage(ds->graph, partition, 128);
  // L-hop halo caching stores vertices redundantly.
  EXPECT_GT(report.replication_factor, 1.2);
  uint64_t halo = 0;
  for (const auto& m : report.machines) halo += m.halo_vertices;
  EXPECT_GT(halo, 0u);
}

}  // namespace
}  // namespace gnndm
