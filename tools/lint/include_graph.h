// Repo-level include analysis: the module dependency graph, layering
// against tools/layers.txt, and the module-graph JSON export.
#ifndef GNNDM_TOOLS_LINT_INCLUDE_GRAPH_H_
#define GNNDM_TOOLS_LINT_INCLUDE_GRAPH_H_

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/source_file.h"

namespace gnndm_lint {

struct LayerManifest {
  bool loaded = false;
  std::map<std::string, int> layer_of;  // module -> layer index
};

LayerManifest LoadLayerManifest(const std::filesystem::path& root);

/// The include edges of the module DAG, with per-edge multiplicity and a
/// representative occurrence for diagnostics.
struct ModuleGraph {
  std::map<std::pair<std::string, std::string>, size_t> edge_count;
  std::map<std::pair<std::string, std::string>,
           std::pair<std::string, size_t>>
      edge_site;  // (from,to) -> (file, line) of first occurrence
  std::set<std::string> modules;
};

ModuleGraph BuildModuleGraph(const std::vector<SourceFile>& files);

/// Layering pass: manifest membership, direction, and cycles. Reports
/// one finding per offending #include line so suppressions land where
/// the dependency is introduced.
void CheckLayering(const std::vector<SourceFile>& files,
                   const LayerManifest& manifest, const ModuleGraph& graph);

void WriteGraphJson(const std::string& path, const LayerManifest& manifest,
                    const ModuleGraph& graph);

}  // namespace gnndm_lint

#endif  // GNNDM_TOOLS_LINT_INCLUDE_GRAPH_H_
