// Property-based sweeps (parameterized gtest): structural invariants that
// must hold for every configuration, not just hand-picked examples.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "partition/analyzer.h"
#include "partition/hash_partitioner.h"
#include "partition/metis_partitioner.h"
#include "partition/partitioner.h"
#include "partition/stream_partitioner.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/tensor.h"
#include "transfer/device_model.h"
#include "transfer/feature_cache.h"
#include "transfer/pipeline.h"
#include "transfer/transfer_engine.h"

namespace gnndm {
namespace {

// ---------------------------------------------------------------------
// CSR construction round-trip: for random generated graphs, the CSR must
// be symmetric, deduplicated, loop-free, and degree-consistent.
class CsrPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsrPropertyTest, SymmetricDeduplicatedLoopFree) {
  const uint64_t seed = GetParam();
  CsrGraph g = GenerateRmat(512, 4096, seed);
  uint64_t degree_sum = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto nbrs = g.neighbors(v);
    degree_sum += nbrs.size();
    std::set<VertexId> unique(nbrs.begin(), nbrs.end());
    EXPECT_EQ(unique.size(), nbrs.size());    // deduplicated
    EXPECT_EQ(unique.count(v), 0u);           // no self loop
    for (VertexId u : nbrs) {
      EXPECT_TRUE(g.HasEdge(v, u)) << "asymmetric edge " << u << "<->" << v;
    }
  }
  EXPECT_EQ(degree_sum, g.num_edges());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------
// Sampler invariants across (mode, size parameter, seed).
struct SamplerCase {
  SampleSizeMode mode;
  uint32_t fanout;
  double rate;
  uint64_t seed;
};

class SamplerPropertyTest : public ::testing::TestWithParam<SamplerCase> {};

TEST_P(SamplerPropertyTest, StructuralInvariantsHold) {
  const SamplerCase& param = GetParam();
  CommunityGraph cg = GeneratePowerLawCommunity(800, 4, 12.0, 1.5, 99);
  HopSpec spec;
  spec.mode = param.mode;
  spec.fanout = param.fanout;
  spec.rate = param.rate;
  spec.hybrid_degree_threshold = 16;
  NeighborSampler sampler({spec, spec});
  Rng rng(param.seed);
  std::vector<VertexId> seeds{3, 99, 500, 731};
  SampledSubgraph sg = sampler.Sample(cg.graph, seeds, rng);

  ASSERT_EQ(sg.num_layers(), 2u);
  EXPECT_EQ(sg.seeds(), seeds);
  for (uint32_t l = 0; l < 2; ++l) {
    const SampleLayer& layer = sg.layers[l];
    const auto& src = sg.node_ids[l];
    const auto& dst = sg.node_ids[l + 1];
    ASSERT_EQ(layer.num_src, src.size());
    ASSERT_EQ(layer.num_dst, dst.size());
    for (size_t i = 0; i < dst.size(); ++i) EXPECT_EQ(src[i], dst[i]);
    for (uint32_t i = 0; i < layer.num_dst; ++i) {
      const uint32_t count = layer.offsets[i + 1] - layer.offsets[i];
      const uint32_t degree = cg.graph.degree(dst[i]);
      EXPECT_LE(count, degree);
      if (degree > 0) {
        EXPECT_GE(count, 1u);
      }
      // Every sampled edge is a real graph edge.
      for (uint32_t e = layer.offsets[i]; e < layer.offsets[i + 1]; ++e) {
        EXPECT_TRUE(cg.graph.HasEdge(src[layer.neighbors[e]], dst[i]));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SamplerPropertyTest,
    ::testing::Values(
        SamplerCase{SampleSizeMode::kFanout, 2, 0.0, 1},
        SamplerCase{SampleSizeMode::kFanout, 8, 0.0, 2},
        SamplerCase{SampleSizeMode::kFanout, 32, 0.0, 3},
        SamplerCase{SampleSizeMode::kRate, 0, 0.05, 4},
        SamplerCase{SampleSizeMode::kRate, 0, 0.3, 5},
        SamplerCase{SampleSizeMode::kRate, 0, 0.9, 6},
        SamplerCase{SampleSizeMode::kHybrid, 4, 0.2, 7},
        SamplerCase{SampleSizeMode::kHybrid, 8, 0.5, 8}));

// Weighted (importance) sampling obeys the same structural invariants.
class WeightedSamplerPropertyTest
    : public ::testing::TestWithParam<NeighborWeighting> {};

TEST_P(WeightedSamplerPropertyTest, InvariantsHoldUnderWeighting) {
  CommunityGraph cg = GeneratePowerLawCommunity(700, 4, 14.0, 1.5, 131);
  HopSpec spec = HopSpec::Fanout(6);
  spec.weighting = GetParam();
  NeighborSampler sampler({spec, spec});
  Rng rng(132);
  std::vector<VertexId> seeds{2, 77, 350, 699};
  SampledSubgraph sg = sampler.Sample(cg.graph, seeds, rng);
  EXPECT_EQ(sg.seeds(), seeds);
  for (uint32_t l = 0; l < 2; ++l) {
    const SampleLayer& layer = sg.layers[l];
    const auto& src = sg.node_ids[l];
    const auto& dst = sg.node_ids[l + 1];
    for (size_t i = 0; i < dst.size(); ++i) EXPECT_EQ(src[i], dst[i]);
    for (uint32_t i = 0; i < layer.num_dst; ++i) {
      const uint32_t count = layer.offsets[i + 1] - layer.offsets[i];
      EXPECT_LE(count, 6u);  // fanout cap
      EXPECT_LE(count, cg.graph.degree(dst[i]));
      // Sampled neighbors are distinct (without replacement).
      std::set<uint32_t> unique(
          layer.neighbors.begin() + layer.offsets[i],
          layer.neighbors.begin() + layer.offsets[i + 1]);
      EXPECT_EQ(unique.size(), count);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Weightings, WeightedSamplerPropertyTest,
    ::testing::Values(NeighborWeighting::kUniform,
                      NeighborWeighting::kDegreeProportional,
                      NeighborWeighting::kInverseDegree));

// ---------------------------------------------------------------------
// Every partitioner produces a complete, in-range, train-covering
// assignment for every (method, parts) combination.
struct PartitionCase {
  const char* method;
  uint32_t parts;
};

// gtest_discover_tests builds each CTest name from the printed parameter.
// The default byte dump would embed the address of `method` (and padding),
// which changes on every build, so print the contents instead.
void PrintTo(const PartitionCase& c, std::ostream* os) {
  *os << "(\"" << c.method << "\", " << c.parts << ")";
}

class PartitionPropertyTest
    : public ::testing::TestWithParam<PartitionCase> {};

std::unique_ptr<Partitioner> MakeMethod(const std::string& name) {
  if (name == "hash") return std::make_unique<HashPartitioner>();
  if (name == "metis-v") {
    return std::make_unique<MetisPartitioner>(MetisMode::kV);
  }
  if (name == "metis-ve") {
    return std::make_unique<MetisPartitioner>(MetisMode::kVE);
  }
  if (name == "metis-vet") {
    return std::make_unique<MetisPartitioner>(MetisMode::kVET);
  }
  if (name == "stream-v") return std::make_unique<StreamVPartitioner>(2);
  if (name == "stream-b") return std::make_unique<StreamBPartitioner>();
  return nullptr;
}

TEST_P(PartitionPropertyTest, AssignmentCompleteAndTrainCovered) {
  const PartitionCase& param = GetParam();
  CommunityGraph cg = GeneratePowerLawCommunity(900, 6, 10.0, 1.5, 55);
  VertexSplit split = MakeSplit(900, 0.65, 0.10, 56);
  auto method = MakeMethod(param.method);
  ASSERT_NE(method, nullptr);
  PartitionResult result =
      method->Partition({cg.graph, split}, param.parts, 57);

  ASSERT_EQ(result.assignment.size(), 900u);
  std::vector<uint64_t> train_counts(param.parts, 0);
  for (VertexId v = 0; v < 900; ++v) {
    ASSERT_LT(result.assignment[v], param.parts);
  }
  for (VertexId v : split.train) ++train_counts[result.assignment[v]];
  // Every partition trains something (no idle machine).
  for (uint64_t c : train_counts) EXPECT_GT(c, 0u);
  EXPECT_GE(result.seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Methods, PartitionPropertyTest,
    ::testing::Values(PartitionCase{"hash", 2}, PartitionCase{"hash", 8},
                      PartitionCase{"metis-v", 2},
                      PartitionCase{"metis-v", 8},
                      PartitionCase{"metis-ve", 4},
                      PartitionCase{"metis-vet", 4},
                      PartitionCase{"stream-v", 2},
                      PartitionCase{"stream-v", 4},
                      PartitionCase{"stream-b", 2},
                      PartitionCase{"stream-b", 4}));

// ---------------------------------------------------------------------
// Analyzer conservation laws: every byte sent is received, every
// expansion is attributed exactly once, for every partitioning method.
class AnalyzerPropertyTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(AnalyzerPropertyTest, BytesAndWorkAreConserved) {
  CommunityGraph cg = GeneratePowerLawCommunity(900, 6, 12.0, 2.0, 301);
  VertexSplit split = MakeSplit(900, 0.65, 0.10, 302);
  auto method = MakeMethod(GetParam());
  ASSERT_NE(method, nullptr);
  PartitionResult partition =
      method->Partition({cg.graph, split}, 4, 303);

  NeighborSampler sampler = NeighborSampler::WithFanouts({4, 4});
  AnalyzerOptions options;
  options.batch_size = 128;
  PartitionLoadReport report =
      AnalyzePartition(cg.graph, split, partition, sampler, options);

  uint64_t out = 0, in = 0, sampling = 0, aggregation = 0;
  for (const MachineLoad& m : report.machines) {
    out += m.bytes_out;
    in += m.bytes_in;
    sampling += m.local_sampling + m.remote_sampling;
    aggregation += m.aggregation;
  }
  EXPECT_EQ(out, in);                 // conservation of bytes
  EXPECT_EQ(sampling, aggregation);   // each sampled edge aggregated once
  EXPECT_GE(report.ComputationImbalance(), 1.0);
  EXPECT_GE(report.CommunicationImbalance(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Methods, AnalyzerPropertyTest,
                         ::testing::Values("hash", "metis-v", "metis-ve",
                                           "metis-vet", "stream-v",
                                           "stream-b"));

// ---------------------------------------------------------------------
// Transfer-cost laws across engines and cache ratios.
class TransferCostPropertyTest
    : public ::testing::TestWithParam<double> {};

TEST_P(TransferCostPropertyTest, CostsMonotoneInCacheRatio) {
  const double ratio = GetParam();
  CsrGraph g = GenerateBarabasiAlbert(500, 4, 401);
  FeatureMatrix features(500, 32);
  DeviceModel device;
  std::vector<VertexId> vertices;
  for (VertexId v = 0; v < 500; v += 2) vertices.push_back(v);

  FeatureCache cache = FeatureCache::DegreeBased(
      g, static_cast<uint64_t>(ratio * 500));
  FeatureCache bigger = FeatureCache::DegreeBased(
      g, static_cast<uint64_t>(ratio * 500) + 100);
  for (const char* name : {"extract-load", "zero-copy", "hybrid"}) {
    auto engine = MakeTransferEngine(name, device);
    TransferStats with_cache = engine->Cost(vertices, features, &cache);
    TransferStats with_bigger = engine->Cost(vertices, features, &bigger);
    TransferStats without = engine->Cost(vertices, features, nullptr);
    EXPECT_LE(with_cache.bytes_moved, without.bytes_moved) << name;
    EXPECT_LE(with_bigger.bytes_moved, with_cache.bytes_moved) << name;
    EXPECT_LE(with_cache.TotalSeconds(), without.TotalSeconds() + 1e-12)
        << name;
    // Staging the rows first (what a BatchSource producer does) leaves
    // the cost unchanged.
    Tensor out;
    TransferEngine::Gather(vertices, features, out);
    TransferStats staged = engine->Cost(vertices, features, &cache);
    EXPECT_EQ(staged.bytes_moved, with_cache.bytes_moved) << name;
    EXPECT_EQ(out.rows(), vertices.size()) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, TransferCostPropertyTest,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8));

// ---------------------------------------------------------------------
// Pipeline laws: for any stage times, kOverlapBpDt <= kOverlapBp <=
// kNone, and every mode is at least the bottleneck resource's busy time.
class PipelinePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelinePropertyTest, ModesOrderedAndBottleneckBounded) {
  Rng rng(GetParam());
  std::vector<StageTimes> batches;
  const int n = 2 + static_cast<int>(rng.UniformInt(20));
  for (int i = 0; i < n; ++i) {
    batches.push_back({rng.UniformReal() * 2.0, rng.UniformReal() * 2.0,
                       rng.UniformReal() * 2.0});
  }
  PipelineResult none = SimulatePipeline(batches, PipelineMode::kNone);
  PipelineResult bp = SimulatePipeline(batches, PipelineMode::kOverlapBp);
  PipelineResult full =
      SimulatePipeline(batches, PipelineMode::kOverlapBpDt);
  EXPECT_LE(full.total_seconds, bp.total_seconds + 1e-9);
  EXPECT_LE(bp.total_seconds, none.total_seconds + 1e-9);
  const double bottleneck =
      std::max({full.bp_busy, full.dt_busy, full.nn_busy});
  EXPECT_GE(full.total_seconds + 1e-9, bottleneck);
  // No-pipe time is exactly the sum of all stages.
  EXPECT_NEAR(none.total_seconds,
              none.bp_busy + none.dt_busy + none.nn_busy, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePropertyTest,
                         ::testing::Range<uint64_t>(100, 116));

// ---------------------------------------------------------------------
// Cache laws: hit ratio in [0,1] and monotone in capacity.
class CachePropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(CachePropertyTest, HitRatioMonotoneInCapacity) {
  const double ratio = GetParam();
  CsrGraph g = GenerateBarabasiAlbert(600, 4, 77);
  const auto capacity = static_cast<uint64_t>(ratio * 600);
  FeatureCache small = FeatureCache::DegreeBased(g, capacity);
  FeatureCache large = FeatureCache::DegreeBased(g, capacity + 100);
  std::vector<VertexId> probe;
  for (VertexId v = 0; v < 600; v += 3) probe.push_back(v);
  const double small_hits = small.HitRatio(probe);
  const double large_hits = large.HitRatio(probe);
  EXPECT_GE(small_hits, 0.0);
  EXPECT_LE(small_hits, 1.0);
  EXPECT_LE(small_hits, large_hits + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Ratios, CachePropertyTest,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75));

// ---------------------------------------------------------------------
// Multilevel partitioner balance: the primary constraint stays within
// tolerance across datasets and part counts.
class MetisBalancePropertyTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>> {};

TEST_P(MetisBalancePropertyTest, PrimaryConstraintBalanced) {
  auto [parts, seed] = GetParam();
  CommunityGraph cg = GeneratePlantedPartition(1200, 8, 10.0, 1.5, seed);
  VertexSplit split = MakeSplit(1200, 0.65, 0.10, seed + 1);
  MetisPartitioner metis(MetisMode::kV);
  PartitionResult result = metis.Partition({cg.graph, split}, parts, seed);
  std::vector<double> counts(parts, 0.0);
  for (VertexId v : split.train) ++counts[result.assignment[v]];
  EXPECT_LT(ImbalanceFactor(counts), 1.35)
      << "parts=" << parts << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MetisBalancePropertyTest,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),
                       ::testing::Values(201u, 202u, 203u)));

}  // namespace
}  // namespace gnndm
