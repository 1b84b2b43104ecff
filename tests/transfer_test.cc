#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "graph/generators.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/tensor.h"
#include "transfer/block_activity.h"
#include "transfer/device_model.h"
#include "transfer/feature_cache.h"
#include "transfer/pipeline.h"
#include "transfer/transfer_engine.h"

namespace gnndm {
namespace {

FeatureMatrix MakeFeatures(VertexId n, uint32_t dim) {
  FeatureMatrix f(n, dim);
  for (VertexId v = 0; v < n; ++v) {
    auto row = f.mutable_row(v);
    for (uint32_t d = 0; d < dim; ++d) {
      row[d] = static_cast<float>(v * 1000 + d);
    }
  }
  return f;
}

TEST(DeviceModelTest, CostFormulasBehave) {
  DeviceModel device;
  // DMA of 16 GB at 16 GB/s ~ 1 s plus latency.
  EXPECT_NEAR(device.DmaSeconds(16'000'000'000ull), 1.0,
              0.01 + device.dma_latency_sec);
  // Zero cost for zero work (modulo fixed latency terms).
  EXPECT_NEAR(device.ExtractSeconds(0, 256), 0.0, 1e-12);
  EXPECT_NEAR(device.ZeroCopySeconds(0, 256), 0.0, 1e-12);
  EXPECT_GT(device.KernelSeconds(1e9), 0.0);
}

TEST(TransferEngineTest, GatherProducesCorrectRows) {
  FeatureMatrix f = MakeFeatures(10, 4);
  Tensor out;
  TransferEngine::Gather({7, 2}, f, out);
  ASSERT_EQ(out.rows(), 2u);
  EXPECT_EQ(out.at(0, 0), 7000.0f);
  EXPECT_EQ(out.at(1, 3), 2003.0f);
}

TEST(TransferEngineTest, AllEnginesMoveSameValues) {
  DeviceModel device;
  FeatureMatrix f = MakeFeatures(100, 8);
  std::vector<VertexId> vertices{5, 50, 99, 0};
  for (const char* name : {"extract-load", "zero-copy", "hybrid"}) {
    auto engine = MakeTransferEngine(name, device);
    ASSERT_NE(engine, nullptr) << name;
    Tensor out;
    TransferEngine::Gather(vertices, f, out);
    TransferStats stats = engine->Cost(vertices, f, nullptr);
    EXPECT_EQ(out.rows(), 4u) << name;
    EXPECT_EQ(out.at(1, 0), 50000.0f) << name;
    EXPECT_EQ(stats.rows_requested, 4u) << name;
    EXPECT_GT(stats.TotalSeconds(), 0.0) << name;
  }
}

TEST(TransferEngineTest, ZeroCopySkipsExtraction) {
  DeviceModel device;
  FeatureMatrix f = MakeFeatures(1000, 64);
  std::vector<VertexId> vertices;
  for (VertexId v = 0; v < 500; ++v) vertices.push_back(v * 2);
  ZeroCopyTransfer zero_copy(device);
  ExtractLoadTransfer extract_load(device);
  TransferStats zc = zero_copy.Cost(vertices, f, nullptr);
  TransferStats el = extract_load.Cost(vertices, f, nullptr);
  EXPECT_EQ(zc.extract_seconds, 0.0);
  EXPECT_GT(el.extract_seconds, 0.0);
  // The paper's §7.3.1 shape: zero-copy beats extract+DMA end to end.
  EXPECT_LT(zc.TotalSeconds(), el.TotalSeconds());
}

TEST(TransferEngineTest, CacheHitsCostNothing) {
  DeviceModel device;
  CsrGraph g = GenerateBarabasiAlbert(200, 4, 1);
  FeatureMatrix f = MakeFeatures(200, 16);
  FeatureCache cache = FeatureCache::DegreeBased(g, 200);  // cache all
  ZeroCopyTransfer engine(device);
  Tensor out;
  TransferEngine::Gather({1, 2, 3}, f, out);
  TransferStats stats = engine.Cost({1, 2, 3}, f, &cache);
  EXPECT_EQ(stats.rows_from_cache, 3u);
  EXPECT_EQ(stats.bytes_moved, 0u);
  EXPECT_EQ(stats.TotalSeconds(), 0.0);
  // Values still materialize for the NN.
  EXPECT_EQ(out.at(0, 0), 1000.0f);
}

TEST(TransferEngineTest, HybridDegeneratesToDenseOrSparse) {
  DeviceModel device;
  FeatureMatrix f = MakeFeatures(4096, 64);  // 256 B rows, 1024 rows/block
  // Dense access: all rows of block 0.
  std::vector<VertexId> dense;
  for (VertexId v = 0; v < 1024; ++v) dense.push_back(v);
  // Sparse access: one row per block.
  std::vector<VertexId> sparse{0, 1024, 2048, 3072};

  HybridTransfer hybrid(device, /*threshold=*/0.5);
  TransferStats dense_stats = hybrid.Cost(dense, f, nullptr);
  TransferStats sparse_stats = hybrid.Cost(sparse, f, nullptr);
  // Dense block shipped whole: exactly one block of bytes.
  EXPECT_EQ(dense_stats.bytes_moved, 1024u * 256u);
  // Sparse rows shipped individually.
  EXPECT_EQ(sparse_stats.bytes_moved, 4u * 256u);
}

TEST(FeatureCacheTest, DegreeBasedPrefersHubs) {
  CsrGraph g = GenerateBarabasiAlbert(500, 3, 2);
  FeatureCache cache = FeatureCache::DegreeBased(g, 50);
  // Every cached vertex has degree >= every uncached vertex... at least
  // on the boundary: check min cached degree >= some high percentile.
  uint32_t min_cached = UINT32_MAX, max_uncached = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (cache.Contains(v)) {
      min_cached = std::min(min_cached, g.degree(v));
    } else {
      max_uncached = std::max(max_uncached, g.degree(v));
    }
  }
  EXPECT_GE(min_cached, max_uncached == 0 ? 0 : max_uncached);
}

TEST(FeatureCacheTest, PreSamplingCachesHotVertices) {
  CommunityGraph cg = GeneratePowerLawCommunity(1000, 4, 15.0, 1.5, 3);
  VertexSplit split = MakeSplit(1000, 0.65, 0.10, 4);
  NeighborSampler sampler = NeighborSampler::WithFanouts({5, 5});
  Rng rng(5);
  FeatureCache cache = FeatureCache::PreSampling(
      cg.graph, split.train, sampler, 128, 8, 100, rng);
  EXPECT_EQ(cache.policy(), "presample");
  // The cache should get a clearly-better-than-random hit ratio on a
  // fresh batch.
  Rng rng2(6);
  SampledSubgraph sg = sampler.Sample(
      cg.graph, {split.train[0], split.train[1], split.train[2]}, rng2);
  double hit = cache.HitRatio(sg.input_vertices());
  EXPECT_GT(hit, 0.10);  // random 100/1000 would be ~0.10 on average
}

TEST(FeatureCacheTest, EmptyCacheMissesEverything) {
  FeatureCache cache;
  EXPECT_FALSE(cache.Contains(0));
  EXPECT_EQ(cache.HitRatio({1, 2, 3}), 0.0);
}

TEST(PipelineTest, NoPipeIsSumOfStages) {
  std::vector<StageTimes> batches(3, {1.0, 2.0, 3.0});
  PipelineResult result = SimulatePipeline(batches, PipelineMode::kNone);
  EXPECT_DOUBLE_EQ(result.total_seconds, 3 * 6.0);
}

TEST(PipelineTest, FullPipeApproachesBottleneck) {
  // 10 identical batches, DT dominates: steady state = DT-bound.
  std::vector<StageTimes> batches(10, {1.0, 3.0, 1.0});
  PipelineResult full =
      SimulatePipeline(batches, PipelineMode::kOverlapBpDt);
  // Lower bound: sum of DT; upper: DT + one BP fill + one NN drain.
  EXPECT_GE(full.total_seconds, 30.0);
  EXPECT_LE(full.total_seconds, 30.0 + 1.0 + 1.0 + 1e-9);
}

TEST(PipelineTest, ModesAreMonotonicallyFaster) {
  std::vector<StageTimes> batches;
  for (int i = 0; i < 8; ++i) {
    batches.push_back({0.5 + 0.1 * (i % 3), 1.0, 0.7});
  }
  double none =
      SimulatePipeline(batches, PipelineMode::kNone).total_seconds;
  double bp =
      SimulatePipeline(batches, PipelineMode::kOverlapBp).total_seconds;
  double full =
      SimulatePipeline(batches, PipelineMode::kOverlapBpDt).total_seconds;
  EXPECT_LT(bp, none);
  EXPECT_LT(full, bp);
}

TEST(PipelineTest, BusyTimesAreStageSums) {
  std::vector<StageTimes> batches(4, {1.0, 2.0, 0.5});
  PipelineResult result =
      SimulatePipeline(batches, PipelineMode::kOverlapBpDt);
  EXPECT_DOUBLE_EQ(result.bp_busy, 4.0);
  EXPECT_DOUBLE_EQ(result.dt_busy, 8.0);
  EXPECT_DOUBLE_EQ(result.nn_busy, 2.0);
  EXPECT_GT(result.BottleneckShare(), 0.5);
}

TEST(BlockActivityTest, RatiosAndExplicitThreshold) {
  // 64-byte rows, 256-byte blocks => 4 rows per block; 16 vertices => 4
  // blocks.
  std::vector<VertexId> touched{0, 1, 2, 3, 4, 8};
  BlockActivity activity = ComputeBlockActivity(
      touched, /*total_vertices=*/16, /*row_bytes=*/64, nullptr,
      /*block_bytes=*/256);
  ASSERT_EQ(activity.active_ratio.size(), 4u);
  EXPECT_DOUBLE_EQ(activity.active_ratio[0], 1.0);   // rows 0-3
  EXPECT_DOUBLE_EQ(activity.active_ratio[1], 0.25);  // row 4 only
  EXPECT_DOUBLE_EQ(activity.active_ratio[2], 0.25);  // row 8 only
  EXPECT_DOUBLE_EQ(activity.active_ratio[3], 0.0);
  EXPECT_EQ(activity.ActiveBlocks(), 3u);
  EXPECT_DOUBLE_EQ(activity.ExplicitBlockRatio(0.5), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(activity.ExplicitBlockRatio(0.2), 1.0);
}

TEST(BlockActivityTest, CachingShrinksActivity) {
  CsrGraph g = GenerateBarabasiAlbert(1000, 4, 7);
  FeatureCache cache = FeatureCache::DegreeBased(g, 300);
  std::vector<VertexId> touched;
  for (VertexId v = 0; v < 1000; v += 2) touched.push_back(v);
  BlockActivity uncached =
      ComputeBlockActivity(touched, 1000, 256, nullptr);
  BlockActivity cached = ComputeBlockActivity(touched, 1000, 256, &cache);
  // The Fig 15 effect: after caching, fewer rows are active per block.
  double uncached_sum = 0.0, cached_sum = 0.0;
  for (double r : uncached.active_ratio) uncached_sum += r;
  for (double r : cached.active_ratio) cached_sum += r;
  EXPECT_LT(cached_sum, uncached_sum);
}

}  // namespace
}  // namespace gnndm
