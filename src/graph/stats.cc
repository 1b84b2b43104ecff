#include "graph/stats.h"
#include "common/rng.h"
#include "graph/csr_graph.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace gnndm {

double LocalClusteringCoefficient(const CsrGraph& graph, VertexId v) {
  auto nbrs = graph.neighbors(v);
  size_t k = nbrs.size();
  if (k < 2) return 0.0;
  uint64_t links = 0;
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      if (graph.HasEdge(nbrs[i], nbrs[j])) ++links;
    }
  }
  return 2.0 * static_cast<double>(links) /
         (static_cast<double>(k) * (k - 1));
}

double SampledClusteringCoefficient(const CsrGraph& graph, VertexId v,
                                    uint32_t max_neighbors, Rng& rng) {
  auto nbrs = graph.neighbors(v);
  const uint32_t degree = static_cast<uint32_t>(nbrs.size());
  if (degree < 2) return 0.0;
  if (degree <= max_neighbors) return LocalClusteringCoefficient(graph, v);
  std::vector<uint32_t> picks;
  std::vector<uint8_t> mark;
  rng.SampleWithoutReplacement(degree, max_neighbors, picks, mark);
  uint64_t links = 0;
  for (size_t i = 0; i < picks.size(); ++i) {
    for (size_t j = i + 1; j < picks.size(); ++j) {
      if (graph.HasEdge(nbrs[picks[i]], nbrs[picks[j]])) ++links;
    }
  }
  return 2.0 * static_cast<double>(links) /
         (static_cast<double>(picks.size()) * (picks.size() - 1));
}

double AverageClusteringCoefficient(const CsrGraph& graph,
                                    const std::vector<VertexId>& vertices) {
  double sum = 0.0;
  size_t count = 0;
  if (vertices.empty()) {
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      sum += LocalClusteringCoefficient(graph, v);
      ++count;
    }
  } else {
    for (VertexId v : vertices) {
      sum += LocalClusteringCoefficient(graph, v);
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Variance(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double mean = Mean(values);
  double sum_sq = 0.0;
  for (double v : values) sum_sq += (v - mean) * (v - mean);
  return sum_sq / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  return std::sqrt(Variance(values));
}

double ImbalanceFactor(const std::vector<double>& values) {
  if (values.empty()) return 1.0;
  double mean = Mean(values);
  if (mean <= 0.0) return 1.0;
  double max = *std::max_element(values.begin(), values.end());
  return max / mean;
}

std::vector<uint64_t> DegreeHistogram(const CsrGraph& graph) {
  std::vector<uint64_t> buckets;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    uint32_t d = graph.degree(v);
    size_t b = 0;
    while ((uint32_t{1} << (b + 1)) <= d) ++b;
    if (d == 0) b = 0;
    if (b >= buckets.size()) buckets.resize(b + 1, 0);
    ++buckets[b];
  }
  return buckets;
}

double DegreeGini(const CsrGraph& graph) {
  VertexId n = graph.num_vertices();
  if (n == 0) return 0.0;
  std::vector<double> degrees(n);
  for (VertexId v = 0; v < n; ++v) degrees[v] = graph.degree(v);
  std::sort(degrees.begin(), degrees.end());
  double cum = 0.0, weighted = 0.0;
  for (VertexId i = 0; i < n; ++i) {
    cum += degrees[i];
    weighted += degrees[i] * static_cast<double>(i + 1);
  }
  if (cum <= 0.0) return 0.0;
  return (2.0 * weighted) / (n * cum) - (n + 1.0) / n;
}

DegreeClasses SplitByDegree(const CsrGraph& graph,
                            const std::vector<VertexId>& vertices) {
  DegreeClasses out;
  if (vertices.empty()) return out;
  std::vector<uint32_t> degrees;
  degrees.reserve(vertices.size());
  for (VertexId v : vertices) degrees.push_back(graph.degree(v));
  std::vector<uint32_t> sorted = degrees;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  out.threshold_degree = sorted[sorted.size() / 2];
  for (size_t i = 0; i < vertices.size(); ++i) {
    if (degrees[i] <= out.threshold_degree) {
      out.low.push_back(vertices[i]);
    } else {
      out.high.push_back(vertices[i]);
    }
  }
  return out;
}

}  // namespace gnndm
