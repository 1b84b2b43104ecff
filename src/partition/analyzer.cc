#include "partition/analyzer.h"

#include "batch/batch_selector.h"
#include "common/logging.h"
#include "common/rng.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "graph/stats.h"
#include "partition/partitioner.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/sampled_subgraph.h"

namespace gnndm {

uint64_t PartitionLoadReport::TotalComputation() const {
  uint64_t total = 0;
  for (const MachineLoad& m : machines) total += m.TotalComputation();
  return total;
}

uint64_t PartitionLoadReport::TotalCommunication() const {
  // Every byte is counted once as out and once as in; report sent bytes.
  uint64_t total = 0;
  for (const MachineLoad& m : machines) total += m.bytes_out;
  return total;
}

namespace {

std::vector<double> ToDoubles(const std::vector<MachineLoad>& machines,
                              uint64_t (MachineLoad::*fn)() const) {
  std::vector<double> values;
  values.reserve(machines.size());
  for (const MachineLoad& m : machines) {
    values.push_back(static_cast<double>((m.*fn)()));
  }
  return values;
}

}  // namespace

double PartitionLoadReport::ComputationImbalance() const {
  return ImbalanceFactor(ToDoubles(machines, &MachineLoad::TotalComputation));
}

double PartitionLoadReport::CommunicationImbalance() const {
  return ImbalanceFactor(
      ToDoubles(machines, &MachineLoad::TotalCommunication));
}

StorageReport AnalyzeStorage(const CsrGraph& graph,
                             const PartitionResult& partition,
                             uint32_t feature_bytes) {
  StorageReport report;
  report.machines.resize(partition.num_parts);
  uint64_t stored_total = 0;
  for (uint32_t p = 0; p < partition.num_parts; ++p) {
    StorageReport::PerMachine& m = report.machines[p];
    std::vector<VertexId> stored = partition.PartitionVertices(p);
    m.owned_vertices = stored.size();
    if (p < partition.halo.size()) {
      m.halo_vertices = partition.halo[p].size();
      stored.insert(stored.end(), partition.halo[p].begin(),
                    partition.halo[p].end());
    }
    uint64_t edges = 0;
    for (VertexId v : stored) edges += graph.degree(v);
    m.feature_bytes = stored.size() * static_cast<uint64_t>(feature_bytes);
    m.structure_bytes = edges * 8;
    stored_total += stored.size();
  }
  if (graph.num_vertices() > 0) {
    report.replication_factor =
        static_cast<double>(stored_total) / graph.num_vertices();
  }
  return report;
}

PartitionLoadReport AnalyzePartition(const CsrGraph& graph,
                                     const VertexSplit& split,
                                     const PartitionResult& partition,
                                     const NeighborSampler& sampler,
                                     const AnalyzerOptions& options) {
  const uint32_t parts = partition.num_parts;
  PartitionLoadReport report;
  report.machines.resize(parts);

  Rng rng(options.seed);
  RandomBatchSelector selector;
  for (uint32_t p = 0; p < parts; ++p) {
    std::vector<VertexId> local_train = partition.Filter(split.train, p);
    if (local_train.empty()) continue;
    auto batches = selector.SelectEpoch(local_train, options.batch_size, rng);
    for (const auto& batch : batches) {
      SampledSubgraph sg = sampler.Sample(graph, batch, rng);

      // Sampling work: expanding destination vertex `dst` produced its
      // sampled edge list; the owner of `dst` executes that expansion.
      for (uint32_t l = 0; l < sg.num_layers(); ++l) {
        const SampleLayer& layer = sg.layers[l];
        const std::vector<VertexId>& dst_ids = sg.node_ids[l + 1];
        for (uint32_t i = 0; i < layer.num_dst; ++i) {
          const VertexId dst = dst_ids[i];
          const uint64_t edges = layer.offsets[i + 1] - layer.offsets[i];
          if (partition.IsLocal(dst, p)) {
            report.machines[p].local_sampling += edges;
          } else {
            const uint32_t owner = partition.assignment[dst];
            report.machines[owner].remote_sampling += edges;
            // The sampled structure is shipped owner -> trainer.
            const uint64_t bytes = edges * options.edge_bytes;
            report.machines[owner].bytes_out += bytes;
            report.machines[p].bytes_in += bytes;
          }
        }
        // Aggregation (training) happens on the trainer for every edge.
        report.machines[p].aggregation += layer.num_edges();
      }

      // Remote input features are fetched from their owners.
      for (VertexId v : sg.input_vertices()) {
        if (!partition.IsLocal(v, p)) {
          const uint32_t owner = partition.assignment[v];
          report.machines[owner].bytes_out += options.feature_bytes;
          report.machines[p].bytes_in += options.feature_bytes;
        }
      }
    }
  }

  // Per-partition density: mean sampled clustering coefficient of each
  // partition's induced subgraph.
  report.clustering_coeff.resize(parts, 0.0);
  for (uint32_t p = 0; p < parts; ++p) {
    std::vector<VertexId> vertices = partition.PartitionVertices(p);
    if (vertices.empty()) continue;
    CsrGraph sub = graph.InducedSubgraph(vertices);
    double sum = 0.0;
    for (VertexId v = 0; v < sub.num_vertices(); ++v) {
      sum += SampledClusteringCoefficient(
          sub, v, options.clustering_max_neighbors, rng);
    }
    report.clustering_coeff[p] = sum / static_cast<double>(vertices.size());
  }
  report.clustering_coeff_variance = Variance(report.clustering_coeff);
  return report;
}

}  // namespace gnndm
