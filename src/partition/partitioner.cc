#include "partition/partitioner.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"

#include <string>

namespace gnndm {

Status PartitionResult::Validate(VertexId num_vertices) const {
  if (num_parts == 0) {
    return Status::Internal("partition: num_parts is 0");
  }
  if (assignment.size() != num_vertices) {
    return Status::Internal(
        "partition: assignment covers " + std::to_string(assignment.size()) +
        " vertices, graph has " + std::to_string(num_vertices));
  }
  std::vector<uint64_t> counts(num_parts, 0);
  for (VertexId v = 0; v < assignment.size(); ++v) {
    if (assignment[v] >= num_parts) {
      return Status::Internal("partition: vertex " + std::to_string(v) +
                              " assigned to nonexistent part " +
                              std::to_string(assignment[v]));
    }
    ++counts[assignment[v]];
  }
  if (!halo.empty() && halo.size() != num_parts) {
    return Status::Internal("partition: halo list count != num_parts");
  }
  for (const auto& part_halo : halo) {
    for (size_t i = 0; i < part_halo.size(); ++i) {
      if (part_halo[i] >= num_vertices) {
        return Status::Internal("partition: halo vertex out of range");
      }
      if (i > 0 && part_halo[i] <= part_halo[i - 1]) {
        return Status::Internal("partition: halo not sorted and unique");
      }
    }
  }
  if (balance_epsilon > 0.0 && num_vertices > 0) {
    const double cap =
        (1.0 + balance_epsilon) * static_cast<double>(num_vertices) /
        static_cast<double>(num_parts);
    for (uint32_t p = 0; p < num_parts; ++p) {
      if (static_cast<double>(counts[p]) > cap) {
        return Status::Internal(
            "partition: part " + std::to_string(p) + " holds " +
            std::to_string(counts[p]) + " vertices, exceeding declared "
            "balance epsilon " + std::to_string(balance_epsilon));
      }
    }
  }
  return Status::Ok();
}

std::vector<VertexId> PartitionResult::PartitionVertices(uint32_t p) const {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < assignment.size(); ++v) {
    if (assignment[v] == p) out.push_back(v);
  }
  return out;
}

std::vector<VertexId> PartitionResult::Filter(
    const std::vector<VertexId>& vertices, uint32_t p) const {
  std::vector<VertexId> out;
  for (VertexId v : vertices) {
    if (assignment[v] == p) out.push_back(v);
  }
  return out;
}

uint64_t PartitionResult::EdgeCut(const CsrGraph& graph) const {
  uint64_t cut = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (VertexId u : graph.neighbors(v)) {
      if (assignment[u] != assignment[v]) ++cut;
    }
  }
  // Each undirected edge appears twice in the symmetric CSR.
  return cut / 2;
}

RoleMasks MakeRoleMasks(VertexId num_vertices, const VertexSplit& split) {
  RoleMasks masks;
  masks.is_train.assign(num_vertices, 0);
  masks.is_val.assign(num_vertices, 0);
  masks.is_test.assign(num_vertices, 0);
  for (VertexId v : split.train) masks.is_train[v] = 1;
  for (VertexId v : split.val) masks.is_val[v] = 1;
  for (VertexId v : split.test) masks.is_test[v] = 1;
  return masks;
}

}  // namespace gnndm
