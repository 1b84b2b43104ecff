#include "lint/include_graph.h"

#include <fstream>
#include <functional>
#include <sstream>

namespace gnndm_lint {

namespace fs = std::filesystem;

LayerManifest LoadLayerManifest(const fs::path& root) {
  LayerManifest m;
  const std::string rel = "tools/layers.txt";
  std::ifstream in(root / rel);
  if (!in) {
    Report(rel, 0, "layering",
           "layer manifest tools/layers.txt is missing; every module "
           "must be assigned a layer");
    return m;
  }
  std::string line;
  size_t ln = 0;
  int layer = 0;
  while (std::getline(in, line)) {
    ++ln;
    const std::string t = Trim(line);
    if (t.empty() || t[0] == '#') continue;
    std::istringstream words(t);
    std::string word;
    words >> word;
    if (word != "layer") {
      Report(rel, ln, "layering",
             "unrecognized manifest directive '" + word +
                 "'; expected 'layer <module>...'");
      continue;
    }
    bool any = false;
    while (words >> word) {
      if (m.layer_of.count(word) > 0) {
        Report(rel, ln, "layering",
               "module '" + word + "' appears in more than one layer");
        continue;
      }
      m.layer_of[word] = layer;
      any = true;
    }
    if (any) ++layer;
  }
  m.loaded = true;
  return m;
}

ModuleGraph BuildModuleGraph(const std::vector<SourceFile>& files) {
  ModuleGraph g;
  for (const SourceFile& f : files) {
    g.modules.insert(f.module);
    for (const IncludeDirective& inc : f.includes) {
      if (inc.resolved.empty()) continue;
      const std::string to = ModuleOf(inc.resolved);
      if (to == f.module) continue;
      const auto key = std::make_pair(f.module, to);
      if (g.edge_count[key]++ == 0) {
        g.edge_site[key] = {f.rel, inc.line};
      }
      g.modules.insert(to);
    }
  }
  return g;
}

void CheckLayering(const std::vector<SourceFile>& files,
                   const LayerManifest& manifest, const ModuleGraph& graph) {
  if (!manifest.loaded) return;
  std::set<std::string> unknown_reported;
  for (const SourceFile& f : files) {
    const auto from_it = manifest.layer_of.find(f.module);
    if (from_it == manifest.layer_of.end()) {
      if (unknown_reported.insert(f.module).second) {
        Report(f.rel, 0, "layering",
               "module '" + f.module +
                   "' is not assigned a layer in tools/layers.txt; add "
                   "it to the manifest");
      }
      continue;
    }
    for (const IncludeDirective& inc : f.includes) {
      if (inc.resolved.empty()) continue;
      const std::string to = ModuleOf(inc.resolved);
      if (to == f.module) continue;
      const auto to_it = manifest.layer_of.find(to);
      if (to_it == manifest.layer_of.end()) {
        if (unknown_reported.insert(to).second) {
          Report(f.rel, inc.line, "layering",
                 "included module '" + to +
                     "' is not assigned a layer in tools/layers.txt");
        }
        continue;
      }
      if (to_it->second > from_it->second) {
        Report(f.rel, inc.line, "layering",
               "upward include: module '" + f.module + "' (layer " +
                   std::to_string(from_it->second) + ") includes '" +
                   inc.resolved + "' from module '" + to + "' (layer " +
                   std::to_string(to_it->second) +
                   "); dependencies must point strictly downward");
      } else if (to_it->second == from_it->second) {
        Report(f.rel, inc.line, "layering",
               "cross-layer include: modules '" + f.module + "' and '" +
                   to + "' share layer " +
                   std::to_string(from_it->second) +
                   " and must stay mutually independent; move one of "
                   "them in tools/layers.txt or break the dependency");
      }
    }
  }
  // Cycle detection on the module digraph, independent of the manifest
  // (a manifest edit must never be able to hide a genuine cycle).
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [edge, count] : graph.edge_count) {
    (void)count;
    adj[edge.first].push_back(edge.second);
  }
  std::map<std::string, int> state;  // 0 unvisited, 1 on stack, 2 done
  std::vector<std::string> path;
  std::function<void(const std::string&)> dfs =
      [&](const std::string& m) {
        state[m] = 1;
        path.push_back(m);
        for (const std::string& n : adj[m]) {
          if (state[n] == 1) {
            std::string cycle = n;
            for (size_t k = path.size(); k-- > 0;) {
              cycle += " -> " + path[k];
              if (path[k] == n) break;
            }
            const auto site = graph.edge_site.at({m, n});
            Report(site.first, site.second, "layering",
                   "module dependency cycle: " + cycle);
          } else if (state[n] == 0) {
            dfs(n);
          }
        }
        path.pop_back();
        state[m] = 2;
      };
  for (const std::string& m : graph.modules) {
    if (state[m] == 0) dfs(m);
  }
}

// ---------------------------------------------------------------------------
// Dependency-graph export
// ---------------------------------------------------------------------------

void WriteGraphJson(const std::string& path, const LayerManifest& manifest,
                    const ModuleGraph& graph) {
  std::ofstream out(path);
  out << "{\n  \"modules\": [\n";
  bool first = true;
  for (const std::string& m : graph.modules) {
    const auto it = manifest.layer_of.find(m);
    out << (first ? "" : ",\n") << "    {\"name\": \"" << m
        << "\", \"layer\": "
        << (it == manifest.layer_of.end() ? -1 : it->second) << "}";
    first = false;
  }
  out << "\n  ],\n  \"edges\": [\n";
  first = true;
  for (const auto& [edge, count] : graph.edge_count) {
    out << (first ? "" : ",\n") << "    {\"from\": \"" << edge.first
        << "\", \"to\": \"" << edge.second << "\", \"includes\": " << count
        << "}";
    first = false;
  }
  out << "\n  ]\n}\n";
}

}  // namespace gnndm_lint
