// Edge cases and failure-injection across module boundaries: degenerate
// graphs, empty splits, extreme parameters, and misuse that must be
// rejected gracefully rather than crash.
#include <gtest/gtest.h>

#include "batch/batch_selector.h"
#include "common/rng.h"
#include "core/trainer.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "partition/analyzer.h"
#include "partition/hash_partitioner.h"
#include "partition/metis_partitioner.h"
#include "partition/partitioner.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/tensor.h"
#include "transfer/block_activity.h"
#include "transfer/device_model.h"
#include "transfer/pipeline.h"
#include "transfer/transfer_engine.h"

namespace gnndm {
namespace {

TEST(EdgeCaseTest, EmptyGraphConstructs) {
  auto g = CsrGraph::FromEdges(0, {});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 0u);
  EXPECT_EQ(g->num_edges(), 0u);
  EXPECT_DOUBLE_EQ(g->AverageDegree(), 0.0);
}

TEST(EdgeCaseTest, IsolatedVerticesSampleToThemselves) {
  // Graph with edges only among 0-1; vertices 2..4 isolated.
  auto g = CsrGraph::FromEdges(5, {{0, 1}});
  ASSERT_TRUE(g.ok());
  NeighborSampler sampler = NeighborSampler::WithFanouts({3, 3});
  Rng rng(1);
  SampledSubgraph sg = sampler.Sample(*g, {2, 3}, rng);
  // No neighbors anywhere: every level is just the seeds.
  EXPECT_EQ(sg.input_vertices(), (std::vector<VertexId>{2, 3}));
  EXPECT_EQ(sg.TotalEdges(), 0u);
}

TEST(EdgeCaseTest, SamplerHandlesDuplicateSeeds) {
  CsrGraph g = GenerateErdosRenyi(100, 400, 2);
  NeighborSampler sampler = NeighborSampler::WithFanouts({2});
  Rng rng(3);
  // Duplicate seeds are legal (they model weighted batches); levels
  // deduplicate below the seed level.
  SampledSubgraph sg = sampler.Sample(g, {5, 5, 5}, rng);
  EXPECT_EQ(sg.seeds().size(), 3u);
  EXPECT_EQ(sg.layers[0].num_dst, 3u);
}

TEST(EdgeCaseTest, BatchSelectorWithBatchLargerThanTrainSet) {
  RandomBatchSelector selector;
  Rng rng(4);
  auto batches = selector.SelectEpoch({1, 2, 3}, 100, rng);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), 3u);
}

TEST(EdgeCaseTest, ClusterSelectorWithSingleCluster) {
  ClusterBatchSelector selector(std::vector<uint32_t>(50, 0));
  Rng rng(5);
  auto batches = selector.SelectEpoch({0, 1, 2, 3, 4}, 2, rng);
  EXPECT_EQ(batches.size(), 3u);
}

TEST(EdgeCaseTest, PartitionMorePartsThanTrainVertices) {
  CommunityGraph cg = GeneratePlantedPartition(100, 2, 6.0, 1.0, 6);
  VertexSplit split;
  split.train = {1, 2, 3};  // 3 train vertices, 8 parts
  HashPartitioner hash;
  PartitionResult result = hash.Partition({cg.graph, split}, 8, 7);
  EXPECT_EQ(result.assignment.size(), 100u);
  // Analyzer must tolerate machines with no training vertices.
  NeighborSampler sampler = NeighborSampler::WithFanouts({2});
  AnalyzerOptions options;
  options.batch_size = 2;
  PartitionLoadReport report =
      AnalyzePartition(cg.graph, split, result, sampler, options);
  EXPECT_EQ(report.machines.size(), 8u);
}

TEST(EdgeCaseTest, MetisOnDisconnectedGraph) {
  // Two disjoint cliques; the partitioner must still cover everything.
  std::vector<Edge> edges;
  for (VertexId a = 0; a < 10; ++a) {
    for (VertexId b = a + 1; b < 10; ++b) {
      edges.push_back({a, b});
      edges.push_back({a + 10u, b + 10u});
    }
  }
  auto g = CsrGraph::FromEdges(20, std::move(edges));
  ASSERT_TRUE(g.ok());
  std::vector<uint32_t> weights(20, 1);
  std::vector<uint32_t> parts = MultilevelPartition(*g, weights, 1, 2, 8);
  std::vector<int> counts(2, 0);
  for (uint32_t p : parts) {
    ASSERT_LT(p, 2u);
    ++counts[p];
  }
  EXPECT_GT(counts[0], 0);
  EXPECT_GT(counts[1], 0);
  // The natural 2-cut of two cliques is zero cut edges.
  uint64_t cut = 0;
  for (VertexId v = 0; v < 20; ++v) {
    for (VertexId u : g->neighbors(v)) {
      if (parts[u] != parts[v]) ++cut;
    }
  }
  EXPECT_EQ(cut, 0u);
}

TEST(EdgeCaseTest, TransferOfEmptyBatchIsFree) {
  DeviceModel device;
  FeatureMatrix features(10, 4);
  for (const char* name : {"extract-load", "zero-copy", "hybrid"}) {
    auto engine = MakeTransferEngine(name, device);
    Tensor out;
    TransferEngine::Gather({}, features, out);
    TransferStats stats = engine->Cost({}, features, nullptr);
    EXPECT_EQ(stats.bytes_moved, 0u) << name;
    EXPECT_EQ(stats.TotalSeconds(), 0.0) << name;
    EXPECT_EQ(out.rows(), 0u) << name;
  }
}

TEST(EdgeCaseTest, PipelineWithNoBatches) {
  for (PipelineMode mode :
       {PipelineMode::kNone, PipelineMode::kOverlapBp,
        PipelineMode::kOverlapBpDt}) {
    PipelineResult result = SimulatePipeline({}, mode);
    EXPECT_DOUBLE_EQ(result.total_seconds, 0.0);
  }
}

TEST(EdgeCaseTest, BlockActivityWithEmptyAccess) {
  BlockActivity activity = ComputeBlockActivity({}, 100, 64, nullptr, 256);
  EXPECT_EQ(activity.ActiveBlocks(), 0u);
  EXPECT_DOUBLE_EQ(activity.ExplicitBlockRatio(0.5), 0.0);
}

TEST(EdgeCaseTest, MakeTransferEngineRejectsUnknown) {
  DeviceModel device;
  EXPECT_EQ(MakeTransferEngine("teleport", device), nullptr);
}

TEST(EdgeCaseTest, DegreeGiniOnRegularGraphIsNearZero) {
  // Ring: every vertex degree 2 => perfectly equal => Gini ~ 0.
  std::vector<Edge> edges;
  for (VertexId v = 0; v < 64; ++v) edges.push_back({v, (v + 1) % 64});
  auto g = CsrGraph::FromEdges(64, std::move(edges));
  ASSERT_TRUE(g.ok());
  EXPECT_NEAR(DegreeGini(*g), 0.0, 1e-9);
}

TEST(EdgeCaseTest, TrainerEvaluateEmptyVerticesIsZero) {
  Result<Dataset> ds = LoadDataset("arxiv_s", 9);
  ASSERT_TRUE(ds.ok());
  TrainerConfig config;
  config.hidden_dim = 8;
  config.hops = {HopSpec::Fanout(2), HopSpec::Fanout(2)};
  Trainer trainer(*ds, config);
  EXPECT_DOUBLE_EQ(trainer.Evaluate({}), 0.0);
}

TEST(EdgeCaseTest, RateOneKeepsEveryNeighbor) {
  CsrGraph g = GenerateErdosRenyi(100, 600, 10);
  NeighborSampler sampler = NeighborSampler::WithRate(1.0, 1);
  Rng rng(11);
  std::vector<VertexId> seeds{0, 1, 2};
  SampledSubgraph sg = sampler.Sample(g, seeds, rng);
  const SampleLayer& layer = sg.layers[0];
  for (uint32_t i = 0; i < layer.num_dst; ++i) {
    EXPECT_EQ(layer.offsets[i + 1] - layer.offsets[i],
              g.degree(seeds[i]));
  }
}

}  // namespace
}  // namespace gnndm
