#ifndef GNNDM_SAMPLING_NEIGHBOR_SAMPLER_H_
#define GNNDM_SAMPLING_NEIGHBOR_SAMPLER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/csr_graph.h"
#include "sampling/sampled_subgraph.h"
#include "sampling/vertex_renumberer.h"

namespace gnndm {

/// Reusable per-call workspace for NeighborSampler::Sample so steady-state
/// sampling performs no hashing and no heap allocation (batch preparation
/// is the paper's Fig. 2 hot path). One instance per calling thread: the
/// scratch is mutated during a call, the sampler itself is not, which is
/// what lets a single const NeighborSampler be shared read-only by N
/// producer workers (AsyncBatchSource) under TSan.
struct SamplerScratch {
  VertexRenumberer renumber;
  std::vector<std::pair<double, uint32_t>> keys;
  std::vector<uint32_t> picks;
  /// Floyd membership marks for Rng::DrawDistinct, indexed by neighbour
  /// position: all zero between calls, grown to the largest degree
  /// sampled.
  std::vector<uint8_t> mark;
};

/// How the size of one hop's sampled neighborhood is determined — the two
/// families the paper evaluates in §6 plus its proposed hybrid.
enum class SampleSizeMode {
  /// Fixed number of neighbors per vertex (GraphSAGE-style); the dominant
  /// choice in Table 1.
  kFanout,
  /// Fixed fraction of each vertex's neighbors (BNS-GCN-style).
  kRate,
  /// Paper §6.3.4: fanout for low-degree vertices, rate for high-degree
  /// vertices ("less sampling for low-degree, more for high-degree").
  kHybrid,
};

/// How neighbors are weighted when drawing a hop's sample — the
/// "sampling algorithm" dimension that is orthogonal to fanout/rate
/// (§6.2). Non-uniform weighting models importance sampling [4], under
/// which the degree-based cache's core assumption ("high-degree vertices
/// are sampled most") breaks (§7.3.3).
enum class NeighborWeighting {
  kUniform,
  /// P(pick u) ∝ degree(u): hub-favoring importance sampling.
  kDegreeProportional,
  /// P(pick u) ∝ 1/degree(u): tail-favoring importance sampling — the
  /// adversary for degree-based caching.
  kInverseDegree,
};

/// Per-hop sampling specification.
struct HopSpec {
  SampleSizeMode mode = SampleSizeMode::kFanout;
  NeighborWeighting weighting = NeighborWeighting::kUniform;
  /// Neighbors per vertex for kFanout; also the budget used by kHybrid
  /// below the degree threshold.
  uint32_t fanout = 10;
  /// Fraction in (0, 1] for kRate / kHybrid above the threshold.
  double rate = 0.1;
  /// Degree above which kHybrid switches from fanout to rate.
  uint32_t hybrid_degree_threshold = 32;

  static HopSpec Fanout(uint32_t fanout) {
    HopSpec s;
    s.mode = SampleSizeMode::kFanout;
    s.fanout = fanout;
    return s;
  }
  static HopSpec Rate(double rate) {
    HopSpec s;
    s.mode = SampleSizeMode::kRate;
    s.rate = rate;
    return s;
  }
  static HopSpec Hybrid(uint32_t fanout, double rate, uint32_t threshold) {
    HopSpec s;
    s.mode = SampleSizeMode::kHybrid;
    s.fanout = fanout;
    s.rate = rate;
    s.hybrid_degree_threshold = threshold;
    return s;
  }
};

/// Vertex-wise L-hop neighbor sampler. Hops are specified outermost-first
/// the way systems write fanouts — e.g. {25, 10} samples 25 direct
/// in-neighbors of each seed, then 10 neighbors of each of those — and the
/// resulting SampledSubgraph stores them input-side-first.
///
/// Sampled vertices are deduplicated within each hop level (the paper's
/// example: V7 sampled by both V3 and V6 appears once).
class NeighborSampler {
 public:
  /// `hops.size()` defines the number of GNN layers the subgraph supports.
  explicit NeighborSampler(std::vector<HopSpec> hops);

  /// Convenience: fanout-based sampler, e.g. ({25, 10}).
  static NeighborSampler WithFanouts(const std::vector<uint32_t>& fanouts);
  /// Convenience: rate-based sampler with the same rate at every hop.
  static NeighborSampler WithRate(double rate, uint32_t num_layers);

  /// Samples the L-hop subgraph rooted at `seeds`. Deterministic in `rng`
  /// (the scratch never influences the draws). Genuinely const: all
  /// mutable state lives in `scratch`, so one sampler instance may be
  /// shared by any number of concurrent callers as long as each brings
  /// its own scratch and rng.
  SampledSubgraph Sample(const CsrGraph& graph,
                         const std::vector<VertexId>& seeds, Rng& rng,
                         SamplerScratch& scratch) const;

  /// Convenience overload using a thread-local scratch: same results,
  /// no steady-state allocation beyond the subgraph itself, safe to call
  /// from any thread. The scratch keeps an array of 8-byte renumbering
  /// entries sized to the largest graph sampled on that thread, and a
  /// byte array sized to its largest degree, alive for the thread's
  /// lifetime.
  SampledSubgraph Sample(const CsrGraph& graph,
                         const std::vector<VertexId>& seeds, Rng& rng) const;

  uint32_t num_layers() const {
    return static_cast<uint32_t>(hops_.size());
  }
  const std::vector<HopSpec>& hops() const { return hops_; }

  /// Human-readable description, e.g. "fanout(25,10)" or "rate(0.1)x2".
  std::string ToString() const;

 private:
  /// Number of neighbors to draw for a vertex of degree `degree` at hop
  /// `spec` (>= 1 for any connected vertex: rate-based sampling always
  /// keeps at least one neighbor, matching BNS-GCN).
  static uint32_t SampleCount(const HopSpec& spec, uint32_t degree);

  std::vector<HopSpec> hops_;
};

}  // namespace gnndm

#endif  // GNNDM_SAMPLING_NEIGHBOR_SAMPLER_H_
