#include "sampling/neighbor_sampler.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/telemetry_names.h"
#include "graph/csr_graph.h"
#include "sampling/sampled_subgraph.h"

namespace gnndm {

NeighborSampler::NeighborSampler(std::vector<HopSpec> hops)
    : hops_(std::move(hops)) {
  GNNDM_CHECK(!hops_.empty());
}

NeighborSampler NeighborSampler::WithFanouts(
    const std::vector<uint32_t>& fanouts) {
  std::vector<HopSpec> hops;
  hops.reserve(fanouts.size());
  for (uint32_t f : fanouts) hops.push_back(HopSpec::Fanout(f));
  return NeighborSampler(std::move(hops));
}

NeighborSampler NeighborSampler::WithRate(double rate, uint32_t num_layers) {
  std::vector<HopSpec> hops(num_layers, HopSpec::Rate(rate));
  return NeighborSampler(std::move(hops));
}

namespace {

/// Weighted sampling without replacement (Efraimidis–Spirakis keys) of
/// `k` neighbor positions, with weights given by each neighbor's degree
/// (or its inverse). `keys` and `picks` are caller-owned scratch reused
/// across calls; the result is left in `picks`.
// gnndm-hot
void WeightedPicks(const CsrGraph& graph, std::span<const VertexId> nbrs,
                   uint32_t k, NeighborWeighting weighting, Rng& rng,
                   std::vector<std::pair<double, uint32_t>>& keys,
                   std::vector<uint32_t>& picks) {
  picks.resize(k);
  if (k == nbrs.size()) {
    // Keep-everything fast path: no keys, no log() per neighbor — common
    // on low-degree vertices where the fanout covers the whole
    // neighborhood. (Callers draw nothing from `rng` on this path, which
    // is fine: the draw sequence only has to be deterministic, not
    // identical across code versions — and the full-degree case never
    // reached the key loop before either, see Sample().)
    std::iota(picks.begin(), picks.end(), 0u);
    return;
  }
  keys.resize(nbrs.size());
  for (uint32_t i = 0; i < nbrs.size(); ++i) {
    const double degree = 1.0 + graph.degree(nbrs[i]);
    // Inverse weighting uses 1/deg^2 so a hub's many selection chances
    // (one per adjacent expansion) do not cancel the down-weighting —
    // expected accesses then genuinely concentrate on the tail.
    const double weight =
        weighting == NeighborWeighting::kDegreeProportional
            ? degree
            : 1.0 / (degree * degree);
    double u = rng.UniformReal();
    if (u <= 0.0) u = 1e-300;
    keys[i] = {-std::log(u) / weight, i};
  }
  std::partial_sort(keys.begin(), keys.begin() + k, keys.end());
  for (uint32_t i = 0; i < k; ++i) picks[i] = keys[i].second;
}

}  // namespace

uint32_t NeighborSampler::SampleCount(const HopSpec& spec, uint32_t degree) {
  if (degree == 0) return 0;
  switch (spec.mode) {
    case SampleSizeMode::kFanout:
      return std::min(spec.fanout, degree);
    case SampleSizeMode::kRate: {
      auto k = static_cast<uint32_t>(
          std::ceil(spec.rate * static_cast<double>(degree)));
      return std::clamp<uint32_t>(k, 1, degree);
    }
    case SampleSizeMode::kHybrid:
      if (degree <= spec.hybrid_degree_threshold) {
        return std::min(spec.fanout, degree);
      } else {
        auto k = static_cast<uint32_t>(
            std::ceil(spec.rate * static_cast<double>(degree)));
        return std::clamp<uint32_t>(k, 1, degree);
      }
  }
  return 0;
}

SampledSubgraph NeighborSampler::Sample(const CsrGraph& graph,
                                        const std::vector<VertexId>& seeds,
                                        Rng& rng) const {
  // One scratch per thread: concurrent callers (the AsyncBatchSource
  // producer workers) each get their own workspace while sharing the
  // sampler itself read-only.
  thread_local SamplerScratch scratch;
  return Sample(graph, seeds, rng, scratch);
}

// gnndm-hot
SampledSubgraph NeighborSampler::Sample(const CsrGraph& graph,
                                        const std::vector<VertexId>& seeds,
                                        Rng& rng,
                                        SamplerScratch& scratch) const {
  const uint32_t num_layers = this->num_layers();
  SampledSubgraph sg;
  sg.node_ids.resize(num_layers + 1);
  sg.layers.resize(num_layers);
  sg.node_ids[num_layers] = seeds;

  // Walk hops from the seeds inward. hops_[0] applies to the seeds (the
  // outermost hop), producing node level num_layers-1, and so on.
  for (uint32_t hop = 0; hop < num_layers; ++hop) {
    const HopSpec& spec = hops_[hop];
    const uint32_t dst_level = num_layers - hop;
    const uint32_t src_level = dst_level - 1;
    const std::vector<VertexId>& dst_ids = sg.node_ids[dst_level];

    // Source level starts with a copy of the destinations (self features
    // must be available for COMBINE), then unique sampled neighbors.
    // Renumbering goes through the timestamped dense id-map: same
    // insertion-order slots the hash map assigned, no hashing, O(1) reset.
    std::vector<VertexId>& src_ids = sg.node_ids[src_level];
    src_ids = dst_ids;
    scratch.renumber.Reset(graph.num_vertices());
    for (uint32_t i = 0; i < dst_ids.size(); ++i) {
      scratch.renumber.InsertOrGet(dst_ids[i], i);
    }

    SampleLayer& layer = sg.layers[src_level];
    layer.num_dst = static_cast<uint32_t>(dst_ids.size());
    layer.offsets.assign(1, 0);
    layer.offsets.reserve(dst_ids.size() + 1);

    for (VertexId dst : dst_ids) {
      auto nbrs = graph.neighbors(dst);
      const uint32_t degree = static_cast<uint32_t>(nbrs.size());
      const uint32_t k = SampleCount(spec, degree);
      if (k == degree) {
        // Keep the whole neighborhood — no sampling needed.
        for (VertexId u : nbrs) {
          auto [slot, inserted] = scratch.renumber.InsertOrGet(
              u, static_cast<uint32_t>(src_ids.size()));
          if (inserted) src_ids.push_back(u);
          layer.neighbors.push_back(slot);
        }
      } else {
        if (spec.weighting == NeighborWeighting::kUniform) {
          rng.SampleWithoutReplacement(degree, k, scratch.picks,
                                       scratch.mark);
        } else {
          WeightedPicks(graph, nbrs, k, spec.weighting, rng, scratch.keys,
                        scratch.picks);
        }
        for (uint32_t pick : scratch.picks) {
          VertexId u = nbrs[pick];
          auto [slot, inserted] = scratch.renumber.InsertOrGet(
              u, static_cast<uint32_t>(src_ids.size()));
          if (inserted) src_ids.push_back(u);
          layer.neighbors.push_back(slot);
        }
      }
      layer.offsets.push_back(
          static_cast<uint32_t>(layer.neighbors.size()));
    }
    layer.num_src = static_cast<uint32_t>(src_ids.size());
  }
  GNNDM_DCHECK_OK(sg.Validate(graph.num_vertices()));
  if (telemetry::Enabled()) {
    // Registry lookups take the registry mutex; resolve the handles once
    // (instruments live for the process) so the per-Sample cost is four
    // relaxed atomic bumps.
    static telemetry::Counter& subgraphs =
        telemetry::GetCounter(telemetry_names::kSamplingSubgraphs);
    static telemetry::Counter& seed_count =
        telemetry::GetCounter(telemetry_names::kSamplingSeeds);
    static telemetry::Counter& vertices =
        telemetry::GetCounter(telemetry_names::kSamplingVertices);
    static telemetry::Counter& edges =
        telemetry::GetCounter(telemetry_names::kSamplingEdges);
    subgraphs.Increment();
    seed_count.Add(seeds.size());
    vertices.Add(sg.TotalVertices());
    edges.Add(sg.TotalEdges());
  }
  return sg;
}

std::string NeighborSampler::ToString() const {
  std::ostringstream out;
  switch (hops_[0].mode) {
    case SampleSizeMode::kFanout: {
      out << "fanout(";
      for (size_t i = 0; i < hops_.size(); ++i) {
        if (i) out << ",";
        out << hops_[i].fanout;
      }
      out << ")";
      break;
    }
    case SampleSizeMode::kRate:
      out << "rate(" << hops_[0].rate << ")x" << hops_.size();
      break;
    case SampleSizeMode::kHybrid:
      out << "hybrid(f=" << hops_[0].fanout << ",r=" << hops_[0].rate
          << ",d<=" << hops_[0].hybrid_degree_threshold << ")x"
          << hops_.size();
      break;
  }
  return out.str();
}

}  // namespace gnndm
