#include <gtest/gtest.h>

#include "core/convergence.h"
#include "core/costs.h"
#include "core/metrics.h"
#include "core/trainer.h"
#include "graph/dataset.h"
#include "nn/model.h"
#include "nn/parameter.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/sampled_subgraph.h"
#include "transfer/pipeline.h"

namespace gnndm {
namespace {

TEST(ConvergenceTrackerTest, BestAndTimeToAccuracy) {
  ConvergenceTracker tracker;
  tracker.Record(0, 1.0, 0.50, 1.2);
  tracker.Record(1, 2.0, 0.70, 0.8);
  tracker.Record(2, 3.0, 0.65, 0.7);
  EXPECT_DOUBLE_EQ(tracker.BestAccuracy(), 0.70);
  EXPECT_DOUBLE_EQ(tracker.SecondsToAccuracy(0.6), 2.0);
  EXPECT_EQ(tracker.EpochsToAccuracy(0.6), 1);
  EXPECT_LT(tracker.SecondsToAccuracy(0.99), 0.0);  // never reached
}

TEST(ConvergenceTrackerTest, ConvergedAfterPlateau) {
  ConvergenceTracker tracker;
  tracker.Record(0, 1.0, 0.70, 1.0);
  EXPECT_FALSE(tracker.Converged(3));
  for (uint32_t e = 1; e <= 3; ++e) tracker.Record(e, e + 1.0, 0.70, 1.0);
  EXPECT_TRUE(tracker.Converged(3));
  tracker.Record(4, 5.0, 0.80, 0.9);  // new best breaks the plateau
  EXPECT_FALSE(tracker.Converged(3));
}

TEST(CostsTest, FlopsGrowWithSubgraphSize) {
  SampledSubgraph small, large;
  small.node_ids = {{0, 1, 2}, {0, 1}};
  small.layers.resize(1);
  small.layers[0].num_src = 3;
  small.layers[0].num_dst = 2;
  small.layers[0].offsets = {0, 1, 2};
  small.layers[0].neighbors = {2, 2};
  large = small;
  large.layers[0].neighbors = {2, 2, 2, 2, 2, 2};
  large.layers[0].offsets = {0, 3, 6};
  EXPECT_LT(EstimateGnnFlops(small, 8, 8, 4, 2),
            EstimateGnnFlops(large, 8, 8, 4, 2));
}

class TrainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<Dataset> ds = LoadDataset("arxiv_s", 1);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::move(ds).value();
  }
  TrainerConfig SmallConfig() {
    TrainerConfig config;
    config.hidden_dim = 16;
    config.batch_size = 512;
    config.hops = {HopSpec::Fanout(5), HopSpec::Fanout(5)};
    config.seed = 2;
    return config;
  }
  Dataset dataset_;
};

TEST_F(TrainerTest, EpochProducesStatsAndAdvancesClock) {
  Trainer trainer(dataset_, SmallConfig());
  EpochStats stats = trainer.TrainEpoch();
  EXPECT_EQ(stats.epoch, 0u);
  EXPECT_GT(stats.epoch_seconds, 0.0);
  EXPECT_GT(stats.involved_vertices, 0u);
  EXPECT_GT(stats.involved_edges, 0u);
  EXPECT_GT(stats.bytes_transferred, 0u);
  EXPECT_GT(stats.train_loss, 0.0);
  EXPECT_DOUBLE_EQ(trainer.total_virtual_seconds(), stats.epoch_seconds);
}

TEST_F(TrainerTest, LossDecreasesAndAccuracyBeatsChance) {
  Trainer trainer(dataset_, SmallConfig());
  EpochStats first = trainer.TrainEpoch();
  EpochStats last;
  for (int e = 0; e < 4; ++e) last = trainer.TrainEpoch();
  EXPECT_LT(last.train_loss, first.train_loss);
  double acc = trainer.Evaluate(dataset_.split.val);
  EXPECT_GT(acc, 2.0 / dataset_.num_classes);  // chance = 1/num_classes
}

TEST_F(TrainerTest, TrainToConvergenceRecordsHistory) {
  Trainer trainer(dataset_, SmallConfig());
  const ConvergenceTracker& tracker = trainer.TrainToConvergence(
      /*max_epochs=*/3, /*patience=*/10);
  EXPECT_EQ(tracker.history().size(), 3u);
  EXPECT_GT(tracker.BestAccuracy(), 0.0);
}

TEST_F(TrainerTest, PipelineModeShortensEpoch) {
  TrainerConfig no_pipe = SmallConfig();
  no_pipe.pipeline = PipelineMode::kNone;
  TrainerConfig full_pipe = SmallConfig();
  full_pipe.pipeline = PipelineMode::kOverlapBpDt;
  Trainer a(dataset_, no_pipe);
  Trainer b(dataset_, full_pipe);
  EXPECT_GT(a.TrainEpoch().epoch_seconds, b.TrainEpoch().epoch_seconds);
}

TEST_F(TrainerTest, ZeroCopyFasterThanExtractLoad) {
  TrainerConfig extract = SmallConfig();
  extract.transfer = "extract-load";
  TrainerConfig zero_copy = SmallConfig();
  zero_copy.transfer = "zero-copy";
  Trainer a(dataset_, extract);
  Trainer b(dataset_, zero_copy);
  EpochStats ea = a.TrainEpoch();
  EpochStats eb = b.TrainEpoch();
  EXPECT_GT(ea.extract_seconds, 0.0);
  EXPECT_DOUBLE_EQ(eb.extract_seconds, 0.0);
  EXPECT_LT(eb.extract_seconds + eb.load_seconds,
            ea.extract_seconds + ea.load_seconds);
}

TEST_F(TrainerTest, CacheReducesBytesTransferred) {
  TrainerConfig uncached = SmallConfig();
  TrainerConfig cached = SmallConfig();
  cached.cache_policy = "presample";
  cached.cache_ratio = 0.3;
  Trainer a(dataset_, uncached);
  Trainer b(dataset_, cached);
  EpochStats ea = a.TrainEpoch();
  EpochStats eb = b.TrainEpoch();
  EXPECT_LT(eb.bytes_transferred, ea.bytes_transferred);
  EXPECT_GT(eb.rows_from_cache, 0u);
}

TEST_F(TrainerTest, AdaptiveScheduleGrowsBatchSize) {
  TrainerConfig config = SmallConfig();
  config.adaptive_batch = true;
  config.adaptive_initial = 64;
  config.adaptive_max = 1024;
  config.adaptive_epochs_per_step = 1;
  Trainer trainer(dataset_, config);
  EpochStats e0 = trainer.TrainEpoch();
  EpochStats e1 = trainer.TrainEpoch();
  EpochStats e2 = trainer.TrainEpoch();
  EXPECT_EQ(e0.batch_size, 64u);
  EXPECT_EQ(e1.batch_size, 128u);
  EXPECT_EQ(e2.batch_size, 256u);
}

TEST_F(TrainerTest, ClusterSelectorInvolvesFewerVertices) {
  TrainerConfig random_config = SmallConfig();
  TrainerConfig cluster_config = SmallConfig();
  cluster_config.batch_selector = "cluster";
  cluster_config.cluster_count = 16;
  Trainer a(dataset_, random_config);
  Trainer b(dataset_, cluster_config);
  EXPECT_GT(a.TrainEpoch().involved_vertices,
            b.TrainEpoch().involved_vertices);
}

TEST_F(TrainerTest, AsyncLoaderPathTrainsEquivalently) {
  TrainerConfig async_config = SmallConfig();
  async_config.loader_workers = 1;
  async_config.async_queue_depth = 3;
  Trainer trainer(dataset_, async_config);
  EpochStats first = trainer.TrainEpoch();
  EXPECT_GT(first.involved_vertices, 0u);
  EXPECT_GT(first.bytes_transferred, 0u);
  EpochStats last = first;
  for (int e = 0; e < 4; ++e) last = trainer.TrainEpoch();
  EXPECT_LT(last.train_loss, first.train_loss);
  EXPECT_GT(trainer.Evaluate(dataset_.split.val),
            2.0 / dataset_.num_classes);
}

TEST_F(TrainerTest, AsyncLoaderPathIsDeterministic) {
  TrainerConfig config = SmallConfig();
  config.loader_workers = 1;
  Trainer a(dataset_, config);
  Trainer b(dataset_, config);
  EpochStats ea = a.TrainEpoch();
  EpochStats eb = b.TrainEpoch();
  EXPECT_DOUBLE_EQ(ea.train_loss, eb.train_loss);
  EXPECT_EQ(ea.involved_edges, eb.involved_edges);
}

TEST_F(TrainerTest, LoaderWorkersAreByteIdentical) {
  // The BatchSource contract end to end: training with N producer
  // workers at any prefetch depth yields bit-identical epoch stats to
  // preparing every batch inline — loss double included.
  auto run = [&](size_t workers, size_t depth) {
    TrainerConfig config = SmallConfig();
    config.loader_workers = workers;
    config.async_queue_depth = depth;
    Trainer trainer(dataset_, config);
    std::vector<EpochStats> epochs;
    for (int e = 0; e < 2; ++e) epochs.push_back(trainer.TrainEpoch());
    return epochs;
  };
  const std::vector<EpochStats> inline_run = run(0, 1);
  for (auto [workers, depth] :
       {std::pair<size_t, size_t>{1, 1}, {4, 2}, {4, 16}}) {
    const std::vector<EpochStats> worker_run = run(workers, depth);
    ASSERT_EQ(worker_run.size(), inline_run.size());
    for (size_t e = 0; e < inline_run.size(); ++e) {
      EXPECT_DOUBLE_EQ(worker_run[e].train_loss, inline_run[e].train_loss);
      EXPECT_EQ(worker_run[e].involved_vertices,
                inline_run[e].involved_vertices);
      EXPECT_EQ(worker_run[e].involved_edges, inline_run[e].involved_edges);
      EXPECT_EQ(worker_run[e].bytes_transferred,
                inline_run[e].bytes_transferred);
      EXPECT_DOUBLE_EQ(worker_run[e].epoch_seconds,
                       inline_run[e].epoch_seconds);
    }
  }
}

TEST_F(TrainerTest, EvaluateDetailedIsConsistentWithEvaluate) {
  Trainer trainer(dataset_, SmallConfig());
  trainer.TrainEpoch();
  // Detailed evaluation resamples, so compare against its own accuracy
  // invariants rather than a second Evaluate() call.
  ClassificationMetrics metrics =
      trainer.EvaluateDetailed(dataset_.split.val);
  EXPECT_EQ(metrics.total(), dataset_.split.val.size());
  EXPECT_GE(metrics.Accuracy(), 0.0);
  EXPECT_LE(metrics.Accuracy(), 1.0);
  EXPECT_GE(metrics.MacroF1(), 0.0);
  // Confusion rows sum to per-class label counts.
  uint64_t sum = 0;
  for (uint32_t a = 0; a < dataset_.num_classes; ++a) {
    for (uint32_t b = 0; b < dataset_.num_classes; ++b) {
      sum += metrics.confusion(a, b);
    }
  }
  EXPECT_EQ(sum, metrics.total());
}

TEST_F(TrainerTest, WeightDecayShrinksParameterNorm) {
  TrainerConfig plain = SmallConfig();
  TrainerConfig decayed = SmallConfig();
  decayed.weight_decay = 0.05f;
  Trainer a(dataset_, plain);
  Trainer b(dataset_, decayed);
  for (int e = 0; e < 5; ++e) {
    a.TrainEpoch();
    b.TrainEpoch();
  }
  auto norm = [](GnnModel& model) {
    double total = 0.0;
    for (Parameter* p : model.Parameters()) total += p->value.Norm();
    return total;
  };
  EXPECT_LT(norm(b.model()), norm(a.model()));
}

TEST_F(TrainerTest, EvaluateByDegreeReturnsBothClasses) {
  Trainer trainer(dataset_, SmallConfig());
  trainer.TrainEpoch();
  auto [low, high] = trainer.EvaluateByDegree(dataset_.split.val);
  EXPECT_GE(low, 0.0);
  EXPECT_LE(low, 1.0);
  EXPECT_GE(high, 0.0);
  EXPECT_LE(high, 1.0);
}

}  // namespace
}  // namespace gnndm
