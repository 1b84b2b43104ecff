// gnndm_lint: the repo's style/invariant linter (see DESIGN.md §11, §15).
//
//   $ gnndm_lint <repo_root> [--graph-json=<path>] [--effects-json=<path>]
//                            [--findings-json=<path>] [--bench-json=<path>]
//                            [--stats]
//   $ gnndm_lint --fixture <file>...
//
//   --graph-json=P    write the module dependency graph (modules, layers,
//                     edges with multiplicities) as JSON
//   --effects-json=P  write the interprocedural effect analysis: per-
//                     function own/transitive effects, contract roots,
//                     resolved calls, and call-graph resolution stats
//   --findings-json=P write the findings as a JSON array (rule id, file,
//                     line, message, call chain) — the CI artifact
//   --bench-json=P    write BENCH-style self-measurement: wall time from
//                     before loading and per-pass breakdown with the bench
//                     run_meta block
//   --stats           print pass timings and call-graph resolution stats
//   --fixture F...    lint the given files in isolation as if they lived
//                     at src/lint_fixture/<name> (or at src/<m>/<name> for
//                     a file in a src/<m>/ directory), print findings to
//                     stdout, exit 0 — the golden-file harness
//
// The passes live in tools/lint/: lexer, per-file rules, include-graph
// analysis, and the call-graph + effect passes. This file is only the
// driver: flag parsing, file loading, orchestration, and the
// self-measurement plumbing.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "lint/callgraph.h"
#include "lint/effects.h"
#include "lint/include_graph.h"
#include "lint/rules.h"
#include "lint/source_file.h"

namespace gnndm_lint {
namespace {

namespace fs = std::filesystem;
namespace json = gnndm::json;

struct PassTimer {
  std::vector<std::pair<std::string, double>> ms;
  std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();

  void Lap(const std::string& name) {
    const auto t1 = std::chrono::steady_clock::now();
    ms.push_back(
        {name,
         std::chrono::duration<double, std::milli>(t1 - t0).count()});
    t0 = t1;
  }
  double Total() const {
    double s = 0;
    for (const auto& [n, m] : ms) s += m;
    return s;
  }
};

/// Every .h/.cc under src/, tests/, bench/ and tools/ in path order, or
/// false when `root` has no src/.
bool LoadTree(const fs::path& root, std::vector<SourceFile>& files) {
  for (const char* dir : {"src", "tests", "bench", "tools"}) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) {
      // src/ is the wrong-root guard; the rest are optional so reduced
      // trees (the seeded-tree test) still lint.
      if (std::string(dir) == "src") {
        std::fprintf(stderr, "gnndm_lint: missing directory %s\n",
                     base.string().c_str());
        return false;
      }
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension();
      if (ext != ".h" && ext != ".cc") continue;
      const std::string rel =
          fs::relative(entry.path(), root).generic_string();
      // The linter's own sources discuss the suppression grammar and
      // rule tokens in doc comments, and the fixture corpus is
      // deliberate violations; neither is repo code to lint.
      if (rel == "tools/gnndm_lint.cc") continue;
      if (StartsWith(rel, "tools/lint/")) continue;
      if (StartsWith(rel, "tests/lint_fixtures/")) continue;
      files.push_back(LoadFile(entry.path(), root));
    }
  }
  // Directory iteration order is filesystem-dependent; exports must be
  // byte-stable across runs and machines.
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.rel < b.rel;
            });
  return true;
}

void WriteFindingsJson(const std::string& path) {
  std::string out = "[";
  bool first = true;
  for (const Finding& v : Violations()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"file\": \"" + json::Escape(v.file) + "\", \"line\": " +
           std::to_string(v.line) + ", \"rule\": \"" + json::Escape(v.rule) +
           "\", \"message\": \"" + json::Escape(v.message) + "\", \"chain\": [";
    bool fc = true;
    for (const std::string& hop : v.chain) {
      if (!fc) out += ", ";
      fc = false;
      out += '"';
      out += json::Escape(hop);
      out += '"';
    }
    out += "]}";
  }
  out += first ? "]\n" : "\n]\n";
  std::FILE* fp = std::fopen(path.c_str(), "wb");
  if (fp == nullptr) {
    std::fprintf(stderr, "gnndm_lint: cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(out.data(), 1, out.size(), fp);
  std::fclose(fp);
}

void WriteBenchJson(const std::string& path, const gnndm::Flags& flags,
                    const PassTimer& timer, const CallGraphStats& st,
                    size_t files, size_t findings) {
  char buf[64];
  std::string out = "{\n  \"bench\": \"lint\",\n  \"run_meta\": " +
                    gnndm::bench::RunMetaJson(flags) + ",\n";
  std::snprintf(buf, sizeof(buf), "%.1f", timer.Total());
  out += "  \"wall_ms\": " + std::string(buf) + ",\n  \"passes\": {";
  bool first = true;
  for (const auto& [name, m] : timer.ms) {
    if (!first) out += ", ";
    first = false;
    std::snprintf(buf, sizeof(buf), "%.1f", m);
    out += "\"" + name + "\": " + buf;
  }
  out += "},\n";
  out += "  \"files\": " + std::to_string(files) + ",\n";
  out += "  \"findings\": " + std::to_string(findings) + ",\n";
  out += "  \"callgraph\": {\"functions\": " + std::to_string(st.functions) +
         ", \"lambdas\": " + std::to_string(st.lambdas) +
         ", \"src_call_sites\": " + std::to_string(st.src_call_sites) +
         ", \"resolved_repo\": " + std::to_string(st.resolved_repo) +
         ", \"external\": " + std::to_string(st.external) +
         ", \"callable_param\": " + std::to_string(st.callable_param) +
         ", \"unresolved\": " + std::to_string(st.unresolved) + "}\n}\n";
  std::FILE* fp = std::fopen(path.c_str(), "wb");
  if (fp == nullptr) {
    std::fprintf(stderr, "gnndm_lint: cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(out.data(), 1, out.size(), fp);
  std::fclose(fp);
}

void PrintStats(const PassTimer& timer, const CallGraph& g,
                const std::vector<SourceFile>& files) {
  const CallGraphStats& st = g.stats;
  std::printf("gnndm_lint stats:\n");
  for (const auto& [name, m] : timer.ms) {
    std::printf("  pass %-14s %8.1f ms\n", name.c_str(), m);
  }
  const size_t total = st.src_call_sites;
  const size_t resolved = total - st.unresolved;
  std::printf("  functions %zu (+ %zu lambdas)\n", st.functions, st.lambdas);
  std::printf(
      "  src call sites %zu: repo %zu, external %zu, callable %zu, "
      "unresolved %zu (%.1f%% resolved)\n",
      total, st.resolved_repo, st.external, st.callable_param, st.unresolved,
      total == 0 ? 100.0 : 100.0 * static_cast<double>(resolved) /
                               static_cast<double>(total));
  // Every unresolved site, grouped by name — the worklist for growing
  // the resolver (or the external allowlist).
  std::map<std::string, std::vector<std::string>> unresolved;
  for (const CallSite& s : g.sites) {
    if (s.kind != CallKind::kUnresolved) continue;
    const FunctionInfo& fn = g.fns[s.caller];
    unresolved[s.name].push_back(files[fn.file].rel + ":" +
                                 std::to_string(s.line));
  }
  for (const auto& [name, where] : unresolved) {
    std::string locs;
    for (size_t i = 0; i < where.size() && i < 4; ++i) {
      locs += (i != 0 ? " " : "") + where[i];
    }
    if (where.size() > 4) locs += " ...";
    std::printf("  unresolved %-24s x%-3zu %s\n", name.c_str(), where.size(),
                locs.c_str());
  }
}

int Run(int argc, char** argv) {
  std::string root_arg, graph_json, effects_json, findings_json, bench_json;
  bool stats = false;
  std::vector<std::string> fixtures;
  bool fixture_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--stats") {
      stats = true;
    } else if (a == "--fixture") {
      fixture_mode = true;
    } else if (StartsWith(a, "--graph-json=")) {
      graph_json = a.substr(13);
    } else if (StartsWith(a, "--effects-json=")) {
      effects_json = a.substr(15);
    } else if (StartsWith(a, "--findings-json=")) {
      findings_json = a.substr(16);
    } else if (StartsWith(a, "--bench-json=")) {
      bench_json = a.substr(13);
    } else if (fixture_mode) {
      fixtures.push_back(a);
    } else if (root_arg.empty()) {
      root_arg = a;
    } else {
      std::fprintf(stderr, "gnndm_lint: unexpected argument '%s'\n",
                   a.c_str());
      return 2;
    }
  }

  if (fixture_mode) {
    // Golden-file harness: lint each file in isolation under a synthetic
    // src/ path (so src/-scoped rules and the effect contracts apply),
    // print deterministic findings to stdout, always exit 0 — the
    // goldens diff the output. A fixture in a src/<m>/ directory takes
    // that path, for the rules scoped to one module.
    for (const std::string& path : fixtures) {
      ClearViolations();
      const fs::path p = path;
      const fs::path dir = p.parent_path();
      const std::string rel =
          dir.parent_path().filename() == "src"
              ? "src/" + dir.filename().generic_string() + "/" +
                    p.filename().generic_string()
              : "src/lint_fixture/" + p.filename().generic_string();
      std::vector<SourceFile> files;
      files.push_back(LoadFile(p, dir, rel));
      std::map<std::string, std::vector<Suppression>> sups;
      sups[rel] = CollectSuppressions(files[0]);
      RunFileRules(files[0]);
      CallGraph cg = BuildCallGraph(files);
      ComputeEffects(files, cg);
      CheckParallelContext(files, cg);
      CheckHotPathAlloc(files, cg);
      ApplySuppressions(sups);
      SortFindings();
      PrintFindings(stdout);
    }
    return 0;
  }

  if (root_arg.empty()) {
    std::fprintf(stderr,
                 "usage: gnndm_lint <repo_root> [--graph-json=P] "
                 "[--effects-json=P] [--findings-json=P] [--bench-json=P] "
                 "[--stats]\n"
                 "       gnndm_lint --fixture <file>...\n");
    return 2;
  }
  const fs::path root = root_arg;

  PassTimer timer;
  std::vector<SourceFile> files;
  if (!LoadTree(root, files)) return 2;
  timer.Lap("load");

  std::map<std::string, std::vector<Suppression>> sups;
  for (const SourceFile& f : files) {
    sups[f.rel] = CollectSuppressions(f);
    RunFileRules(f);
  }
  timer.Lap("file-rules");

  const LayerManifest manifest = LoadLayerManifest(root);
  const ModuleGraph graph = BuildModuleGraph(files);
  CheckLayering(files, manifest, graph);
  CheckMetricNameRegistry(files);
  timer.Lap("include-graph");

  CallGraph cg = BuildCallGraph(files);
  timer.Lap("callgraph");
  ComputeEffects(files, cg);
  timer.Lap("effects");
  CheckParallelContext(files, cg);
  CheckHotPathAlloc(files, cg);
  timer.Lap("contracts");

  ApplySuppressions(sups);
  SortFindings();

  if (!graph_json.empty()) WriteGraphJson(graph_json, manifest, graph);
  if (!effects_json.empty()) WriteEffectsJson(effects_json, files, cg);
  if (!findings_json.empty()) WriteFindingsJson(findings_json);
  if (!bench_json.empty()) {
    const gnndm::Flags flags(argc, argv);
    WriteBenchJson(bench_json, flags, timer, cg.stats, files.size(),
                   Violations().size());
  }

  PrintFindings(stdout);
  if (stats) PrintStats(timer, cg, files);
  std::printf("gnndm_lint: %zu files scanned, %zu violation(s)\n",
              files.size(), Violations().size());
  return Violations().empty() ? 0 : 1;
}

}  // namespace
}  // namespace gnndm_lint

int main(int argc, char** argv) { return gnndm_lint::Run(argc, argv); }
