#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>

#include "common/rng.h"
#include "graph/csr_graph.h"
#include "graph/generators.h"
#include "sampling/layerwise_sampler.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/sampled_subgraph.h"
#include "sampling/subgraph_sampler.h"
#include "sampling/vertex_renumberer.h"

namespace gnndm {
namespace {

CsrGraph Ring(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v < n; ++v) edges.push_back({v, (v + 1) % n});
  return std::move(CsrGraph::FromEdges(n, std::move(edges)).value());
}

/// Checks the structural invariants every sampler must maintain.
void CheckInvariants(const SampledSubgraph& sg,
                     const std::vector<VertexId>& seeds) {
  ASSERT_EQ(sg.node_ids.size(), sg.layers.size() + 1);
  EXPECT_EQ(sg.seeds(), seeds);
  for (uint32_t l = 0; l < sg.num_layers(); ++l) {
    const SampleLayer& layer = sg.layers[l];
    const auto& src = sg.node_ids[l];
    const auto& dst = sg.node_ids[l + 1];
    EXPECT_EQ(layer.num_src, src.size());
    EXPECT_EQ(layer.num_dst, dst.size());
    ASSERT_EQ(layer.offsets.size(), dst.size() + 1);
    EXPECT_EQ(layer.offsets.back(), layer.neighbors.size());
    // Destination-prefix invariant: src starts with a copy of dst.
    ASSERT_GE(src.size(), dst.size());
    for (size_t i = 0; i < dst.size(); ++i) EXPECT_EQ(src[i], dst[i]);
    // All neighbor indices are valid local source ids.
    for (uint32_t idx : layer.neighbors) EXPECT_LT(idx, layer.num_src);
    // No duplicate vertices within a level.
    std::set<VertexId> unique(src.begin(), src.end());
    EXPECT_EQ(unique.size(), src.size());
  }
}

TEST(NeighborSamplerTest, InvariantsOnCommunityGraph) {
  CommunityGraph cg = GeneratePowerLawCommunity(1000, 4, 15.0, 2.0, 1);
  NeighborSampler sampler = NeighborSampler::WithFanouts({5, 3});
  Rng rng(2);
  std::vector<VertexId> seeds{1, 7, 42, 999};
  SampledSubgraph sg = sampler.Sample(cg.graph, seeds, rng);
  CheckInvariants(sg, seeds);
  EXPECT_EQ(sg.num_layers(), 2u);
}

TEST(NeighborSamplerTest, FanoutCapsSampledNeighbors) {
  CsrGraph g = GenerateErdosRenyi(500, 10000, 3);  // avg degree ~40
  NeighborSampler sampler = NeighborSampler::WithFanouts({4});
  Rng rng(4);
  std::vector<VertexId> seeds;
  for (VertexId v = 0; v < 100; ++v) seeds.push_back(v);
  SampledSubgraph sg = sampler.Sample(g, seeds, rng);
  const SampleLayer& layer = sg.layers[0];
  for (uint32_t i = 0; i < layer.num_dst; ++i) {
    uint32_t count = layer.offsets[i + 1] - layer.offsets[i];
    EXPECT_LE(count, 4u);
  }
}

TEST(NeighborSamplerTest, FullNeighborhoodWhenFanoutExceedsDegree) {
  CsrGraph g = Ring(10);  // every degree == 2
  NeighborSampler sampler = NeighborSampler::WithFanouts({25});
  Rng rng(5);
  SampledSubgraph sg = sampler.Sample(g, {0}, rng);
  EXPECT_EQ(sg.layers[0].num_edges(), 2u);
  // Sampled neighbors of 0 are exactly {1, 9}.
  std::set<VertexId> inputs(sg.input_vertices().begin(),
                            sg.input_vertices().end());
  EXPECT_EQ(inputs, (std::set<VertexId>{0, 1, 9}));
}

TEST(NeighborSamplerTest, RateSamplesProportionally) {
  CsrGraph g = GenerateErdosRenyi(400, 16000, 6);  // avg degree ~80
  NeighborSampler sampler = NeighborSampler::WithRate(0.25, 1);
  Rng rng(7);
  std::vector<VertexId> seeds;
  for (VertexId v = 0; v < 50; ++v) seeds.push_back(v);
  SampledSubgraph sg = sampler.Sample(g, seeds, rng);
  const SampleLayer& layer = sg.layers[0];
  for (uint32_t i = 0; i < layer.num_dst; ++i) {
    uint32_t degree = g.degree(seeds[i]);
    uint32_t count = layer.offsets[i + 1] - layer.offsets[i];
    uint32_t expected = static_cast<uint32_t>(std::ceil(0.25 * degree));
    EXPECT_EQ(count, std::clamp<uint32_t>(expected, 1, degree));
  }
}

TEST(NeighborSamplerTest, RateKeepsAtLeastOneNeighbor) {
  CsrGraph g = Ring(8);  // degree 2 everywhere
  NeighborSampler sampler = NeighborSampler::WithRate(0.01, 1);
  Rng rng(8);
  SampledSubgraph sg = sampler.Sample(g, {3}, rng);
  EXPECT_EQ(sg.layers[0].num_edges(), 1u);
}

TEST(NeighborSamplerTest, HybridSwitchesOnDegreeThreshold) {
  // Star graph: hub 0 has high degree, leaves degree 1.
  std::vector<Edge> edges;
  for (VertexId v = 1; v <= 100; ++v) edges.push_back({0, v});
  CsrGraph g =
      std::move(CsrGraph::FromEdges(101, std::move(edges)).value());
  NeighborSampler sampler({HopSpec::Hybrid(/*fanout=*/3, /*rate=*/0.5,
                                           /*threshold=*/10)});
  Rng rng(9);
  SampledSubgraph sg = sampler.Sample(g, {0, 5}, rng);
  const SampleLayer& layer = sg.layers[0];
  // Hub (degree 100 > 10): rate 0.5 -> 50 samples.
  EXPECT_EQ(layer.offsets[1] - layer.offsets[0], 50u);
  // Leaf (degree 1 <= 10): fanout mode, min(3, 1) = 1 sample.
  EXPECT_EQ(layer.offsets[2] - layer.offsets[1], 1u);
}

TEST(NeighborSamplerTest, DeterministicGivenSameRngSeed) {
  CommunityGraph cg = GeneratePlantedPartition(500, 4, 10.0, 1.0, 10);
  NeighborSampler sampler = NeighborSampler::WithFanouts({5, 5});
  Rng rng1(11), rng2(11);
  SampledSubgraph a = sampler.Sample(cg.graph, {1, 2, 3}, rng1);
  SampledSubgraph b = sampler.Sample(cg.graph, {1, 2, 3}, rng2);
  EXPECT_EQ(a.node_ids, b.node_ids);
  for (uint32_t l = 0; l < a.num_layers(); ++l) {
    EXPECT_EQ(a.layers[l].neighbors, b.layers[l].neighbors);
  }
}

// The paper's Table 8 hybrid on a power-law graph: vertices 0-3 are
// community hubs of degree > 333, so they draw k = ceil(0.3 d) > 100
// neighbours each. The sample is pinned across builds: a faster pick
// must make the same picks in the same order.
TEST(NeighborSamplerTest, HybridSampleOnHubsIsPinned) {
  CommunityGraph cg = GeneratePowerLawCommunity(4000, 4, 15.0, 2.0, 5);
  NeighborSampler sampler(
      {HopSpec::Hybrid(16, 0.3, 32), HopSpec::Hybrid(16, 0.3, 32)});
  std::vector<VertexId> seeds{0, 1, 2, 3};
  for (VertexId v = 4; v < 4000; v += 61) seeds.push_back(v);
  Rng rng(12);
  SampledSubgraph sg = sampler.Sample(cg.graph, seeds, rng);
  CheckInvariants(sg, seeds);
  const SampleLayer& outer = sg.layers[1];
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_GT(outer.offsets[i + 1] - outer.offsets[i], 100u) << "hub " << i;
  }
  uint64_t hash = 14695981039346656037ull;
  auto mix = [&hash](const std::vector<uint32_t>& values) {
    for (uint32_t value : values) {
      for (int byte = 0; byte < 4; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xFF;
        hash *= 1099511628211ull;
      }
    }
  };
  for (const std::vector<VertexId>& ids : sg.node_ids) mix(ids);
  for (const SampleLayer& layer : sg.layers) {
    mix({layer.num_src, layer.num_dst});
    mix(layer.offsets);
    mix(layer.neighbors);
  }
  EXPECT_EQ(sg.TotalEdges(), 14620u);
  EXPECT_EQ(hash, 0xbd5d2e1f85a03f17ull) << std::hex << "hash 0x" << hash;
}

/// Which draw path each destination of a reference sample took.
struct PathCounts {
  uint64_t keep_all = 0;
  uint64_t floyd = 0;
  uint64_t fisher_yates = 0;
  uint64_t weighted = 0;
};

/// NeighborSampler's size rule, restated: the reference must not borrow
/// the code under test.
uint32_t ReferenceSampleCount(const HopSpec& spec, uint32_t degree) {
  if (degree == 0) return 0;
  const bool by_rate =
      spec.mode == SampleSizeMode::kRate ||
      (spec.mode == SampleSizeMode::kHybrid &&
       degree > spec.hybrid_degree_threshold);
  if (!by_rate) return std::min(spec.fanout, degree);
  const auto k = static_cast<uint32_t>(
      std::ceil(spec.rate * static_cast<double>(degree)));
  return std::clamp<uint32_t>(k, 1, degree);
}

/// The sampler's per-hop loop as it was before picks were renumbered as
/// they are drawn: each destination's picks are drawn in full first
/// (Rng::SampleWithoutReplacement, or Efraimidis–Spirakis keys), then
/// renumbered in pick order through a map of two arrays, a stamp and a
/// slot per vertex. NeighborSampler::Sample must match it draw for draw.
SampledSubgraph ReferenceSample(const CsrGraph& graph,
                                const std::vector<HopSpec>& hops,
                                const std::vector<VertexId>& seeds, Rng& rng,
                                PathCounts& paths) {
  const auto num_layers = static_cast<uint32_t>(hops.size());
  SampledSubgraph sg;
  sg.node_ids.resize(num_layers + 1);
  sg.layers.resize(num_layers);
  sg.node_ids[num_layers] = seeds;
  std::vector<uint32_t> stamp(graph.num_vertices(), 0);
  std::vector<uint32_t> slot(graph.num_vertices(), 0);
  uint32_t epoch = 0;
  std::vector<uint32_t> picks;
  std::vector<uint8_t> mark;
  std::vector<std::pair<double, uint32_t>> keys;
  for (uint32_t hop = 0; hop < num_layers; ++hop) {
    const HopSpec& spec = hops[hop];
    const uint32_t dst_level = num_layers - hop;
    const std::vector<VertexId>& dst_ids = sg.node_ids[dst_level];
    std::vector<VertexId>& src_ids = sg.node_ids[dst_level - 1];
    src_ids = dst_ids;
    ++epoch;
    auto renumber = [&](VertexId v) {
      if (stamp[v] != epoch) {
        stamp[v] = epoch;
        slot[v] = static_cast<uint32_t>(src_ids.size());
        src_ids.push_back(v);
      }
      return slot[v];
    };
    for (uint32_t i = 0; i < dst_ids.size(); ++i) {
      stamp[dst_ids[i]] = epoch;
      slot[dst_ids[i]] = i;
    }
    SampleLayer& layer = sg.layers[dst_level - 1];
    layer.num_dst = static_cast<uint32_t>(dst_ids.size());
    layer.offsets.assign(1, 0);
    for (VertexId dst : dst_ids) {
      const auto nbrs = graph.neighbors(dst);
      const auto degree = static_cast<uint32_t>(nbrs.size());
      const uint32_t k = ReferenceSampleCount(spec, degree);
      if (k == degree) {
        ++paths.keep_all;
        for (VertexId u : nbrs) layer.neighbors.push_back(renumber(u));
      } else {
        if (spec.weighting == NeighborWeighting::kUniform) {
          if (3 * k < degree) {
            ++paths.floyd;
          } else {
            ++paths.fisher_yates;
          }
          rng.SampleWithoutReplacement(degree, k, picks, mark);
        } else {
          ++paths.weighted;
          keys.resize(degree);
          for (uint32_t i = 0; i < degree; ++i) {
            const double d = 1.0 + graph.degree(nbrs[i]);
            const double weight =
                spec.weighting == NeighborWeighting::kDegreeProportional
                    ? d
                    : 1.0 / (d * d);
            double u = rng.UniformReal();
            if (u <= 0.0) u = 1e-300;
            keys[i] = {-std::log(u) / weight, i};
          }
          std::partial_sort(keys.begin(), keys.begin() + k, keys.end());
          picks.resize(k);
          for (uint32_t i = 0; i < k; ++i) picks[i] = keys[i].second;
        }
        for (uint32_t pick : picks) {
          layer.neighbors.push_back(renumber(nbrs[pick]));
        }
      }
      layer.offsets.push_back(static_cast<uint32_t>(layer.neighbors.size()));
    }
    layer.num_src = static_cast<uint32_t>(src_ids.size());
  }
  return sg;
}

// The one-pass hop loop (a register copy of the Rng, picks renumbered as
// drawn, outputs sized once) against the reference above: fanout, rate
// and hybrid hops under every weighting, on a power-law graph whose hubs
// reach Floyd (3k < degree), whose mid-degree vertices reach the dense
// Fisher–Yates draw and whose tail keeps whole neighborhoods.
TEST(NeighborSamplerTest, OnePassLoopMatchesReferenceDrawForDraw) {
  CommunityGraph cg = GeneratePowerLawCommunity(3000, 6, 10.0, 2.0, 41);
  const std::vector<std::vector<HopSpec>> sizes = {
      {HopSpec::Fanout(5), HopSpec::Fanout(3)},
      {HopSpec::Rate(0.2), HopSpec::Rate(0.5)},
      {HopSpec::Hybrid(4, 0.3, 12), HopSpec::Hybrid(6, 0.25, 20)},
  };
  PathCounts paths;
  for (NeighborWeighting weighting :
       {NeighborWeighting::kUniform, NeighborWeighting::kDegreeProportional,
        NeighborWeighting::kInverseDegree}) {
    for (std::vector<HopSpec> hops : sizes) {
      for (HopSpec& spec : hops) spec.weighting = weighting;
      const NeighborSampler sampler(hops);
      for (uint64_t seed = 1; seed <= 50; ++seed) {
        SCOPED_TRACE(sampler.ToString() + " weighting " +
                     std::to_string(static_cast<int>(weighting)) +
                     " seed " + std::to_string(seed));
        // Vertices 0..5 are the community hubs: every fifth run starts
        // from three of them.
        std::vector<VertexId> seeds;
        if (seed % 5 == 0) seeds = {0, 1, 2};
        Rng pick(seed * 7919);
        for (int i = 0; i < 24; ++i) {
          const auto v =
              static_cast<VertexId>(pick.UniformInt(cg.graph.num_vertices()));
          if (std::find(seeds.begin(), seeds.end(), v) == seeds.end()) {
            seeds.push_back(v);
          }
        }
        Rng rng(seed);
        Rng reference_rng(seed);
        const SampledSubgraph got = sampler.Sample(cg.graph, seeds, rng);
        const SampledSubgraph want =
            ReferenceSample(cg.graph, hops, seeds, reference_rng, paths);
        ASSERT_EQ(got.node_ids, want.node_ids);
        ASSERT_EQ(got.layers.size(), want.layers.size());
        for (size_t l = 0; l < want.layers.size(); ++l) {
          EXPECT_EQ(got.layers[l].num_src, want.layers[l].num_src) << l;
          EXPECT_EQ(got.layers[l].num_dst, want.layers[l].num_dst) << l;
          ASSERT_EQ(got.layers[l].offsets, want.layers[l].offsets) << l;
          ASSERT_EQ(got.layers[l].neighbors, want.layers[l].neighbors) << l;
        }
        ASSERT_EQ(rng.Next(), reference_rng.Next());
      }
    }
  }
  EXPECT_GT(paths.keep_all, 0u);
  EXPECT_GT(paths.floyd, 0u);
  EXPECT_GT(paths.fisher_yates, 0u);
  EXPECT_GT(paths.weighted, 0u);
}

TEST(NeighborSamplerTest, DeduplicatesSharedNeighbors) {
  // Two seeds sharing all neighbors: the shared vertices must appear once
  // (the paper's V7 example).
  std::vector<Edge> edges{{2, 0}, {3, 0}, {2, 1}, {3, 1}};
  CsrGraph g = std::move(CsrGraph::FromEdges(4, std::move(edges)).value());
  NeighborSampler sampler = NeighborSampler::WithFanouts({10});
  Rng rng(12);
  SampledSubgraph sg = sampler.Sample(g, {0, 1}, rng);
  EXPECT_EQ(sg.input_vertices().size(), 4u);  // 0, 1, 2, 3 — no dupes
}

TEST(NeighborSamplerTest, WeightedSamplingBiasesPicks) {
  // Star-of-stars: seed 0 has 40 neighbors; 20 of them are hubs (high
  // degree via extra leaves), 20 are plain leaves. Degree-proportional
  // weighting must pick hubs far more often than inverse-degree.
  std::vector<Edge> edges;
  for (VertexId v = 1; v <= 40; ++v) edges.push_back({0, v});
  VertexId next = 41;
  for (VertexId hub = 1; hub <= 20; ++hub) {
    for (int leaf = 0; leaf < 30; ++leaf) edges.push_back({hub, next++});
  }
  CsrGraph g = std::move(
      CsrGraph::FromEdges(next, std::move(edges)).value());

  auto hub_fraction = [&](NeighborWeighting weighting) {
    HopSpec spec = HopSpec::Fanout(10);
    spec.weighting = weighting;
    NeighborSampler sampler({spec});
    Rng rng(77);
    uint64_t hubs = 0, total = 0;
    for (int trial = 0; trial < 200; ++trial) {
      SampledSubgraph sg = sampler.Sample(g, {0}, rng);
      for (VertexId u : sg.node_ids[0]) {
        if (u == 0) continue;
        ++total;
        if (u >= 1 && u <= 20) ++hubs;
      }
    }
    return static_cast<double>(hubs) / static_cast<double>(total);
  };

  const double uniform = hub_fraction(NeighborWeighting::kUniform);
  const double degree =
      hub_fraction(NeighborWeighting::kDegreeProportional);
  const double inverse = hub_fraction(NeighborWeighting::kInverseDegree);
  EXPECT_GT(degree, uniform + 0.2);
  EXPECT_LT(inverse, uniform - 0.2);
}

TEST(NeighborSamplerTest, WeightedSamplingKeepsInvariants) {
  CommunityGraph cg = GeneratePowerLawCommunity(600, 4, 12.0, 1.5, 78);
  HopSpec spec = HopSpec::Fanout(5);
  spec.weighting = NeighborWeighting::kInverseDegree;
  NeighborSampler sampler({spec, spec});
  Rng rng(79);
  std::vector<VertexId> seeds{1, 50, 300};
  SampledSubgraph sg = sampler.Sample(cg.graph, seeds, rng);
  CheckInvariants(sg, seeds);
}

TEST(NeighborSamplerTest, ToStringDescribesSpec) {
  EXPECT_EQ(NeighborSampler::WithFanouts({25, 10}).ToString(),
            "fanout(25,10)");
  EXPECT_EQ(NeighborSampler::WithRate(0.1, 2).ToString(), "rate(0.1)x2");
}

TEST(NeighborSamplerTest, TotalsCountAllLevels) {
  CsrGraph g = Ring(20);
  NeighborSampler sampler = NeighborSampler::WithFanouts({2, 2});
  Rng rng(13);
  SampledSubgraph sg = sampler.Sample(g, {0}, rng);
  uint64_t vertices = 0;
  for (const auto& ids : sg.node_ids) vertices += ids.size();
  EXPECT_EQ(sg.TotalVertices(), vertices);
  uint64_t edges = 0;
  for (const auto& layer : sg.layers) edges += layer.num_edges();
  EXPECT_EQ(sg.TotalEdges(), edges);
}

TEST(LayerwiseSamplerTest, BudgetBoundsLayerSize) {
  CommunityGraph cg = GeneratePowerLawCommunity(1000, 4, 20.0, 2.0, 14);
  LayerwiseSampler sampler({64, 32});
  Rng rng(15);
  std::vector<VertexId> seeds;
  for (VertexId v = 0; v < 16; ++v) seeds.push_back(v * 10);
  SampledSubgraph sg = sampler.Sample(cg.graph, seeds, rng);
  CheckInvariants(sg, seeds);
  // Level below the seeds holds at most seeds + budget vertices.
  EXPECT_LE(sg.node_ids[1].size(), seeds.size() + 64);
  EXPECT_LE(sg.node_ids[0].size(), sg.node_ids[1].size() + 32);
}

TEST(LayerwiseSamplerTest, EdgesOnlyTouchChosenSources) {
  CsrGraph g = GenerateErdosRenyi(300, 3000, 16);
  LayerwiseSampler sampler({16});
  Rng rng(17);
  SampledSubgraph sg = sampler.Sample(g, {0, 1, 2, 3}, rng);
  const SampleLayer& layer = sg.layers[0];
  for (uint32_t idx : layer.neighbors) EXPECT_LT(idx, layer.num_src);
}

TEST(SubgraphSamplerTest, SeedsFirstAndLayersShareAdjacency) {
  CommunityGraph cg = GeneratePlantedPartition(600, 3, 12.0, 1.0, 18);
  SubgraphSampler sampler(/*walk_length=*/4, /*num_layers=*/2);
  Rng rng(19);
  std::vector<VertexId> seeds{5, 100, 400};
  SampledSubgraph sg = sampler.Sample(cg.graph, seeds, rng);
  EXPECT_EQ(sg.seeds(), seeds);
  EXPECT_EQ(sg.num_layers(), 2u);
  // First |seeds| input vertices are the seeds.
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(sg.input_vertices()[i], seeds[i]);
  }
  // Final layer destination count equals the seeds.
  EXPECT_EQ(sg.layers[1].num_dst, seeds.size());
}

TEST(SubgraphSamplerTest, InducedEdgesStayInside) {
  CsrGraph g = GenerateErdosRenyi(200, 2000, 20);
  SubgraphSampler sampler(3, 2);
  Rng rng(21);
  SampledSubgraph sg = sampler.Sample(g, {0, 10, 20}, rng);
  std::unordered_set<VertexId> inside(sg.node_ids[0].begin(),
                                      sg.node_ids[0].end());
  // Every edge endpoint maps to a vertex inside the walk-collected set.
  const SampleLayer& layer = sg.layers[0];
  for (uint32_t idx : layer.neighbors) {
    EXPECT_TRUE(inside.count(sg.node_ids[0][idx]) > 0);
  }
}

TEST(VertexRenumbererTest, BasicInsertFindReset) {
  VertexRenumberer map;
  map.Reset(100);
  EXPECT_EQ(map.InsertOrGet(7, 0), (std::pair<uint32_t, bool>{0, true}));
  EXPECT_EQ(map.InsertOrGet(42, 1), (std::pair<uint32_t, bool>{1, true}));
  EXPECT_EQ(map.InsertOrGet(7, 2), (std::pair<uint32_t, bool>{0, false}));
  EXPECT_EQ(map.Find(42), 1u);
  EXPECT_EQ(map.Find(13), VertexRenumberer::kAbsent);
  map.Reset(100);
  EXPECT_FALSE(map.Contains(7));
  EXPECT_EQ(map.Find(42), VertexRenumberer::kAbsent);
}

TEST(VertexRenumbererTest, EpochCounterWraparoundCannotAliasStaleStamps) {
  VertexRenumberer map;
  map.Reset(16);
  // Drive the generation counter to its maximum and stamp a vertex at
  // that generation — the worst-case stale stamp a wrap could alias.
  map.set_epoch_for_testing(std::numeric_limits<uint32_t>::max());
  EXPECT_TRUE(map.Insert(3));
  EXPECT_TRUE(map.Contains(3));

  // The next Reset wraps the u32 counter. Without the refill-on-wrap,
  // epoch would land where old stamps still match and vertex 3 (and any
  // vertex last touched ~4 billion resets ago) would appear present in a
  // generation that never inserted it.
  map.Reset(16);
  EXPECT_EQ(map.epoch_for_testing(), 1u);
  EXPECT_FALSE(map.Contains(3));
  EXPECT_EQ(map.Find(3), VertexRenumberer::kAbsent);

  // The post-wrap generation behaves like a fresh map.
  EXPECT_EQ(map.InsertOrGet(3, 0), (std::pair<uint32_t, bool>{0, true}));
  EXPECT_EQ(map.InsertOrGet(3, 1), (std::pair<uint32_t, bool>{0, false}));
  for (VertexId v = 0; v < 16; ++v) {
    if (v != 3) {
      EXPECT_FALSE(map.Contains(v)) << v;
    }
  }
}

TEST(VertexRenumbererTest, GrowsAcrossResetsKeepingGeneration) {
  VertexRenumberer map;
  map.Reset(4);
  EXPECT_TRUE(map.Insert(2));
  // A larger universe re-stamps nothing: the old ids are simply absent in
  // the new generation and the new tail starts absent too.
  map.Reset(32);
  for (VertexId v = 0; v < 32; ++v) EXPECT_FALSE(map.Contains(v)) << v;
  EXPECT_TRUE(map.Insert(31));
  EXPECT_TRUE(map.Contains(31));
}

}  // namespace
}  // namespace gnndm
