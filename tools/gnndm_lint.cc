// gnndm_lint: the repo's style/invariant linter (see DESIGN.md §11, §15).
//
//   $ gnndm_lint <repo_root> [--graph-json=<path>] [--graph-dot=<path>]
//                            [--effects-json=<path>] [--effects-dot=<path>]
//                            [--findings-json=<path>] [--bench-json=<path>]
//                            [--stats] [--fix]
//   $ gnndm_lint --fixture <file>...
//
//   --graph-json=P    write the module dependency graph (modules, layers,
//                     edges with multiplicities) as JSON
//   --graph-dot=P     write the same graph as Graphviz DOT, one cluster
//                     per layer
//   --effects-json=P  write the interprocedural effect analysis: per-
//                     function own/transitive effects, contract roots,
//                     resolved calls, and call-graph resolution stats
//   --effects-dot=P   write the effect-carrying slice of the call graph
//                     as Graphviz DOT (hot fns red, contract roots bold)
//   --findings-json=P write the findings as a JSON array (rule id, file,
//                     line, message, call chain) — the CI artifact
//   --bench-json=P    write BENCH-style self-measurement: wall time and
//                     per-pass breakdown with the bench run_meta block
//   --stats           print pass timings and call-graph resolution stats
//   --fix             apply mechanical fixes in place (missing include
//                     guards, missing direct includes, unsorted include
//                     blocks) and re-lint; --fix twice is a no-op
//                     (enforced by ctest)
//   --fixture F...    lint the given files in isolation as if they lived
//                     under src/, print findings to stdout, exit 0 — the
//                     golden-file harness
//
// The passes live in tools/lint/: lexer, scope scanner, per-file rules,
// include-graph analysis, and the call-graph + effect passes. This file
// is only the driver: flag parsing, file loading, orchestration, and the
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

void AnalyzeRepo(std::vector<SourceFile>& files, const fs::path& root,
                 LayerManifest* manifest_out, ModuleGraph* graph_out,
                 CallGraph* cg_out, PassTimer* timer) {
  ClearViolations();
  std::map<std::string, std::vector<Suppression>> sups;
  for (SourceFile& f : files) {
    sups[f.rel] = CollectSuppressions(f);
    RunFileRules(f);
  }
  if (timer != nullptr) timer->Lap("file-rules");

  LayerManifest manifest = LoadLayerManifest(root);
  ModuleGraph graph = BuildModuleGraph(files);
  CheckLayering(files, manifest, graph);
  CheckTransitiveIncludes(files);
  CheckMetricNameRegistry(files);
  if (timer != nullptr) timer->Lap("include-graph");

  CallGraph cg = BuildCallGraph(files);
  if (timer != nullptr) timer->Lap("callgraph");
  ComputeEffects(files, cg);
  if (timer != nullptr) timer->Lap("effects");
  CheckParallelContext(files, cg);
  CheckHotTransitiveAlloc(files, cg);
  if (timer != nullptr) timer->Lap("contracts");

  ApplySuppressions(sups);
  SortFindings();
  if (manifest_out != nullptr) *manifest_out = std::move(manifest);
  if (graph_out != nullptr) *graph_out = std::move(graph);
  if (cg_out != nullptr) *cg_out = std::move(cg);
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
      out += "\"" + json::Escape(hop) + "\"";
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
  std::string root_arg, graph_json, graph_dot, effects_json, effects_dot,
      findings_json, bench_json;
  bool fix = false, stats = false;
  std::vector<std::string> fixtures;
  bool fixture_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--fix") {
      fix = true;
    } else if (a == "--stats") {
      stats = true;
    } else if (a == "--fixture") {
      fixture_mode = true;
    } else if (StartsWith(a, "--graph-json=")) {
      graph_json = a.substr(13);
    } else if (StartsWith(a, "--graph-dot=")) {
      graph_dot = a.substr(12);
    } else if (StartsWith(a, "--effects-json=")) {
      effects_json = a.substr(15);
    } else if (StartsWith(a, "--effects-dot=")) {
      effects_dot = a.substr(14);
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
    // goldens diff the output.
    for (const std::string& path : fixtures) {
      ClearViolations();
      const fs::path p = path;
      std::vector<SourceFile> files;
      files.push_back(LoadFile(p, p.parent_path(),
                               "src/lint_fixture/" +
                                   p.filename().generic_string()));
      SourceFile& f = files.back();
      std::map<std::string, std::vector<Suppression>> sups;
      sups[f.rel] = CollectSuppressions(f);
      RunFileRules(f);
      CallGraph cg = BuildCallGraph(files);
      ComputeEffects(files, cg);
      CheckParallelContext(files, cg);
      CheckHotTransitiveAlloc(files, cg);
      ApplySuppressions(sups);
      SortFindings();
      PrintFindings(stdout);
    }
    return 0;
  }

  if (root_arg.empty()) {
    std::fprintf(stderr,
                 "usage: gnndm_lint <repo_root> [--graph-json=P] "
                 "[--graph-dot=P] [--effects-json=P] [--effects-dot=P] "
                 "[--findings-json=P] [--bench-json=P] [--stats] [--fix]\n"
                 "       gnndm_lint --fixture <file>...\n");
    return 2;
  }
  const fs::path root = root_arg;

  auto load_all = [&](std::vector<SourceFile>& files) -> bool {
    files.clear();
    for (const char* dir : {"src", "tests", "bench", "tools"}) {
      const fs::path base = root / dir;
      if (!fs::exists(base)) {
        // src/ is the wrong-root guard; the rest are optional so reduced
        // trees (fix-idempotency test fixtures) still lint.
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
  };

  std::vector<SourceFile> files;
  if (!load_all(files)) return 2;
  LayerManifest manifest;
  ModuleGraph graph;
  CallGraph cg;
  PassTimer timer;
  AnalyzeRepo(files, root, &manifest, &graph, &cg, &timer);

  if (fix) {
    const size_t fixed = ApplyFixes(files, root);
    std::printf("gnndm_lint: --fix rewrote %zu file(s)\n", fixed);
    if (fixed > 0) {
      if (!load_all(files)) return 2;
      timer = PassTimer();
      AnalyzeRepo(files, root, &manifest, &graph, &cg, &timer);
    }
  }

  if (!graph_json.empty()) WriteGraphJson(graph_json, manifest, graph);
  if (!graph_dot.empty()) WriteGraphDot(graph_dot, manifest, graph);
  if (!effects_json.empty()) WriteEffectsJson(effects_json, files, cg);
  if (!effects_dot.empty()) WriteEffectsDot(effects_dot, files, cg);
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
