#ifndef GNNDM_PARTITION_PARTITIONER_H_
#define GNNDM_PARTITION_PARTITIONER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"

namespace gnndm {

/// Output of a graph partitioner.
struct PartitionResult {
  /// assignment[v] in [0, num_parts): the machine owning vertex v.
  std::vector<uint32_t> assignment;
  uint32_t num_parts = 0;
  /// Wall-clock seconds spent partitioning (Fig 6's x-axis ingredient).
  double seconds = 0.0;
  /// Optional per-partition replicated "halo" vertices, each list sorted
  /// and unique: vertices whose graph structure AND features are cached
  /// locally in addition to the owned set. Stream-V (PaGraph) fills this
  /// with the L-hop neighborhood of each partition's training vertices,
  /// which is why it needs no remote traffic during training (§5.3.2),
  /// and edge-hash with the endpoints of each part's edges. Empty for
  /// other methods.
  std::vector<std::vector<VertexId>> halo;
  /// Vertex-balance tolerance the producing method guarantees: every
  /// partition owns at most (1 + balance_epsilon) * |V| / num_parts
  /// vertices. 0 means the method declares no balance guarantee and
  /// Validate() skips the balance check.
  double balance_epsilon = 0.0;

  /// Invariant check: every vertex of a `num_vertices`-vertex graph is
  /// assigned to exactly one existing partition (assignment is total and
  /// in range), each halo is sorted, unique and in range, and — when the
  /// method declared a `balance_epsilon` — per-partition vertex counts
  /// respect it. Every partitioner runs this on its result under
  /// GNNDM_DCHECK.
  [[nodiscard]] Status Validate(VertexId num_vertices) const;

  /// The one locality rule: partition `part` holds vertex `v` when it
  /// owns it or caches it in its halo (a binary search). Inline: the
  /// distributed trainer asks it for every sampled vertex.
  bool IsLocal(VertexId v, uint32_t part) const {
    return assignment[v] == part ||
           (part < halo.size() &&
            std::binary_search(halo[part].begin(), halo[part].end(), v));
  }

  /// Vertices owned by partition `p`.
  std::vector<VertexId> PartitionVertices(uint32_t p) const;
  /// Subset of `vertices` owned by partition `p`.
  std::vector<VertexId> Filter(const std::vector<VertexId>& vertices,
                               uint32_t p) const;
  /// Number of cut edges (edges whose endpoints live on different parts).
  uint64_t EdgeCut(const CsrGraph& graph) const;
};

/// What a partitioner gets to look at: the structure plus the labeled
/// vertex split — GNN partitioning goals are defined in terms of training
/// (and validation/test) vertices and their L-hop neighborhoods (§5.1).
struct PartitionInput {
  const CsrGraph& graph;
  const VertexSplit& split;
};

/// Interface implemented by all six evaluated partitioning methods
/// (Table 3).
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// Partitions into `num_parts` parts. Deterministic in `seed`.
  virtual PartitionResult Partition(const PartitionInput& input,
                                    uint32_t num_parts,
                                    uint64_t seed) const = 0;

  /// Method name as used in the paper's tables, e.g. "Metis-VE".
  virtual std::string name() const = 0;
};

/// Per-vertex role masks derived from a VertexSplit, used by the
/// constraint-balancing partitioners.
struct RoleMasks {
  std::vector<uint8_t> is_train;
  std::vector<uint8_t> is_val;
  std::vector<uint8_t> is_test;
};
RoleMasks MakeRoleMasks(VertexId num_vertices, const VertexSplit& split);

}  // namespace gnndm

#endif  // GNNDM_PARTITION_PARTITIONER_H_
