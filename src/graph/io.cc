#include "graph/io.h"
#include "common/status.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

namespace gnndm {

namespace {

constexpr char kMagic[6] = "GNDM1";

template <typename T>
void WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}

template <typename T, typename Allocator>
void WriteVector(std::ofstream& out, const std::vector<T, Allocator>& values) {
  WritePod(out, static_cast<uint64_t>(values.size()));
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(T)));
}

template <typename T>
bool ReadVector(std::ifstream& in, std::vector<T>& values) {
  uint64_t size = 0;
  if (!ReadPod(in, size)) return false;
  // The count is untrusted input: refuse to allocate more elements than
  // the bytes actually left in the file can hold.
  const auto pos = in.tellg();
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(pos);
  if (pos < 0 || end < pos ||
      size > static_cast<uint64_t>(end - pos) / sizeof(T)) {
    return false;
  }
  values.resize(size);
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(size * sizeof(T)));
  return static_cast<bool>(in);
}

}  // namespace

Status SaveEdgeList(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open for writing: " + path);
  out << "# gnndm edge list: " << graph.num_vertices() << " vertices, "
      << graph.num_edges() << " directed edges\n";
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (VertexId u : graph.neighbors(v)) {
      // CSR stores in-neighbors: u -> v.
      out << u << " " << v << "\n";
    }
  }
  return out ? Status::Ok() : Status::Internal("write failed: " + path);
}

Result<CsrGraph> LoadEdgeList(const std::string& path, bool symmetrize) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::vector<Edge> edges;
  VertexId max_id = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    uint64_t src = 0, dst = 0;
    if (!(fields >> src >> dst)) {
      return Status::InvalidArgument("malformed edge line: " + line);
    }
    if (src > UINT32_MAX || dst > UINT32_MAX) {
      return Status::OutOfRange("vertex id exceeds 32 bits: " + line);
    }
    edges.push_back(
        {static_cast<VertexId>(src), static_cast<VertexId>(dst)});
    max_id = std::max({max_id, static_cast<VertexId>(src),
                       static_cast<VertexId>(dst)});
  }
  if (edges.empty()) return Status::InvalidArgument("no edges in " + path);
  Result<CsrGraph> graph =
      CsrGraph::FromEdges(max_id + 1, std::move(edges), symmetrize);
  if (!graph.ok()) return graph.status();
  GNNDM_RETURN_IF_ERROR(graph->Validate());
  return std::move(graph).value();
}

Status SaveDataset(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Internal("cannot open for writing: " + path);
  out.write(kMagic, sizeof(kMagic));
  // Name.
  WritePod(out, static_cast<uint64_t>(dataset.name.size()));
  out.write(dataset.name.data(),
            static_cast<std::streamsize>(dataset.name.size()));
  // Graph.
  WriteVector(out, dataset.graph.offsets());
  WriteVector(out, dataset.graph.adjacency());
  // Features.
  WritePod(out, dataset.features.dim());
  WriteVector(out, dataset.features.data());
  // Labels + metadata.
  WriteVector(out, dataset.labels);
  WritePod(out, dataset.num_classes);
  WritePod(out, static_cast<uint8_t>(dataset.power_law ? 1 : 0));
  // Split.
  WriteVector(out, dataset.split.train);
  WriteVector(out, dataset.split.val);
  WriteVector(out, dataset.split.test);
  return out ? Status::Ok() : Status::Internal("write failed: " + path);
}

Result<Dataset> LoadDatasetFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  char magic[sizeof(kMagic)] = {};
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a gnndm dataset file: " + path);
  }
  Dataset ds;
  uint64_t name_size = 0;
  if (!ReadPod(in, name_size) || name_size > 4096) {
    return Status::InvalidArgument("corrupt dataset name in " + path);
  }
  ds.name.resize(name_size);
  in.read(ds.name.data(), static_cast<std::streamsize>(name_size));

  std::vector<EdgeId> offsets;
  std::vector<VertexId> adjacency;
  if (!ReadVector(in, offsets) || !ReadVector(in, adjacency)) {
    return Status::InvalidArgument("corrupt graph in " + path);
  }
  if (offsets.empty()) {
    return Status::InvalidArgument("empty graph in " + path);
  }
  // Rebuild the CSR through the public constructor for validation. The
  // offsets index straight into `adjacency` below, so they must be
  // proven monotone and in-bounds *before* any indexing — FromEdges and
  // Validate() run too late to stop a wild read here.
  const auto n = static_cast<VertexId>(offsets.size() - 1);
  if (offsets.front() != 0 || offsets.back() != adjacency.size()) {
    return Status::InvalidArgument("corrupt csr offsets in " + path);
  }
  for (VertexId v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      return Status::InvalidArgument("corrupt csr offsets in " + path);
    }
  }
  std::vector<Edge> edges;
  edges.reserve(adjacency.size());
  for (VertexId v = 0; v < n; ++v) {
    for (EdgeId e = offsets[v]; e < offsets[v + 1]; ++e) {
      edges.push_back({adjacency[e], v});
    }
  }
  Result<CsrGraph> graph =
      CsrGraph::FromEdges(n, std::move(edges), /*symmetrize=*/false);
  if (!graph.ok()) return graph.status();
  ds.graph = std::move(graph).value();
  // The bytes were untrusted: re-check the rebuilt CSR unconditionally
  // (FromEdges only DCHECKs).
  GNNDM_RETURN_IF_ERROR(ds.graph.Validate());

  uint32_t dim = 0;
  std::vector<float> feature_data;
  if (!ReadPod(in, dim) || !ReadVector(in, feature_data)) {
    return Status::InvalidArgument("corrupt features in " + path);
  }
  if (dim == 0 || feature_data.size() != static_cast<size_t>(n) * dim) {
    return Status::InvalidArgument("feature shape mismatch in " + path);
  }
  ds.features = FeatureMatrix(n, dim);
  for (VertexId v = 0; v < n; ++v) {
    auto row = ds.features.mutable_row(v);
    std::memcpy(row.data(), feature_data.data() + static_cast<size_t>(v) * dim,
                dim * sizeof(float));
  }

  uint8_t power_law = 0;
  if (!ReadVector(in, ds.labels) || !ReadPod(in, ds.num_classes) ||
      !ReadPod(in, power_law) || !ReadVector(in, ds.split.train) ||
      !ReadVector(in, ds.split.val) || !ReadVector(in, ds.split.test)) {
    return Status::InvalidArgument("corrupt labels/split in " + path);
  }
  ds.power_law = power_law != 0;
  if (ds.labels.size() != n) {
    return Status::InvalidArgument("label count mismatch in " + path);
  }
  for (const std::vector<VertexId>* part :
       {&ds.split.train, &ds.split.val, &ds.split.test}) {
    for (VertexId v : *part) {
      if (v >= n) {
        return Status::InvalidArgument("split vertex out of range in " +
                                       path);
      }
    }
  }
  return ds;
}

}  // namespace gnndm
