// Fixture: hot-path-alloc, reduced from two findings at b4ed9b4^ under the
// hot NeighborSampler::Sample (src/sampling/neighbor_sampler.cc). The
// per-hop call to the scratch overload of Rng::SampleWithoutReplacement
// (src/common/rng.h) also reaches the vector-returning overload, and
// SampledSubgraph::Validate (src/sampling/sampled_subgraph.cc) built a
// tag string per layer. b4ed9b4 deleted the returning overload and built
// the string on the failure path only.
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gnndm {

class Rng {
 public:
  std::vector<uint32_t> SampleWithoutReplacement(uint32_t n, uint32_t k) {
    std::vector<uint32_t> out;  // expect: flagged via the overload set
    SampleWithoutReplacement(n, k, out);
    return out;
  }
  void SampleWithoutReplacement(uint32_t n, uint32_t k,
                                std::vector<uint32_t>& out) {
    out.clear();
    for (uint32_t j = n - k; j < n; ++j) out.push_back(state_++ % (j + 1));
  }

 private:
  uint32_t state_ = 1;
};

struct SampledSubgraph {
  std::vector<std::vector<uint32_t>> layers;
  bool Validate(uint32_t num_vertices) const;
};

bool SampledSubgraph::Validate(uint32_t num_vertices) const {
  for (size_t l = 0; l < layers.size(); ++l) {
    const std::string tag = "layer " + std::to_string(l);  // expect: flagged
    for (uint32_t v : layers[l]) {
      if (v >= num_vertices) return tag.empty();
    }
  }
  return true;
}

// gnndm-hot
SampledSubgraph Sample(Rng& rng, const std::vector<uint32_t>& degrees,
                       std::vector<uint32_t>& picks) {
  SampledSubgraph sg;
  for (uint32_t degree : degrees) {
    rng.SampleWithoutReplacement(degree, 2, picks);
  }
  (void)sg.Validate(static_cast<uint32_t>(degrees.size()));
  return sg;
}

}  // namespace gnndm
