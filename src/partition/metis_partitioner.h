#ifndef GNNDM_PARTITION_METIS_PARTITIONER_H_
#define GNNDM_PARTITION_METIS_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "graph/csr_graph.h"
#include "partition/partitioner.h"

namespace gnndm {

/// Which balance constraints the multilevel partitioner enforces — the
/// three Metis-extend variants of Table 3.
enum class MetisMode {
  /// Metis-V: balance training-vertex counts only. Best clustering and
  /// lowest total load/communication, worst balance.
  kV,
  /// Metis-VE (DistDGL): additionally balance vertex degrees (edges).
  kVE,
  /// Metis-VET (SALIENT++): additionally balance validation and test
  /// vertex counts. Most constraints, least clustering, fastest
  /// convergence (§5.3.4).
  kVET,
};

/// From-scratch multilevel graph partitioner in the style of Metis [19]:
/// coarsening by size-capped heavy-edge and 2-hop matching, greedy
/// region-growing initial partitioning, and boundary FM refinement —
/// extended with the multi-constraint vertex weights (train/val/test
/// masks, degrees) that DistDGL and SALIENT++ bolt onto Metis
/// ("Metis-extend", §5.2).
class MetisPartitioner : public Partitioner {
 public:
  explicit MetisPartitioner(MetisMode mode) : mode_(mode) {}

  PartitionResult Partition(const PartitionInput& input, uint32_t num_parts,
                            uint64_t seed) const override;
  std::string name() const override;

  MetisMode mode() const { return mode_; }

 private:
  MetisMode mode_;
};

/// Tuning for the multilevel engine (exposed for tests and ablations).
struct MultilevelOptions {
  /// Per-constraint allowed imbalance: max part weight <=
  /// (1 + imbalance) * target.
  double imbalance = 0.10;
  /// Stop coarsening when the graph has ~this many vertices per part.
  /// Coarsening also stops after a level that keeps more than 85% of its
  /// vertices.
  uint32_t coarsen_target_per_part = 30;
  int refine_passes = 3;
};

/// The reusable engine: partitions `graph` into `num_parts` parts while
/// (a) minimizing edge cut and (b) balancing each of `num_constraints`
/// vertex-weight columns of `vertex_weights` (row-major
/// [num_vertices x num_constraints]). Constraints whose global total is
/// zero are ignored. Deterministic in `seed`.
std::vector<uint32_t> MultilevelPartition(
    const CsrGraph& graph, const std::vector<uint32_t>& vertex_weights,
    int num_constraints, uint32_t num_parts, uint64_t seed,
    const MultilevelOptions& options = {});

/// Convenience for cluster-based batch selection (§6.3.2, [64]): clusters
/// the graph into `num_clusters` vertex-count-balanced, densely connected
/// groups.
std::vector<uint32_t> MetisCluster(const CsrGraph& graph,
                                   uint32_t num_clusters, uint64_t seed);

}  // namespace gnndm

#endif  // GNNDM_PARTITION_METIS_PARTITIONER_H_
