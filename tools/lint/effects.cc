#include "lint/effects.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "common/json.h"
#include "lint/rules.h"

namespace gnndm_lint {

namespace {

namespace json = gnndm::json;

constexpr uint8_t kForbiddenInParallel = kEffLocks | kEffBlocks | kEffIo;

bool IsMemberCallTo(const std::vector<const Token*>& toks, size_t i,
                    const char* name) {
  return IsIdent(toks[i], name) && i > 0 &&
         (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->")) &&
         i + 1 < toks.size() && IsPunct(toks[i + 1], "(");
}

bool IsCallTo(const std::vector<const Token*>& toks, size_t i,
              const char* name) {
  return IsIdent(toks[i], name) && i + 1 < toks.size() &&
         IsPunct(toks[i + 1], "(") &&
         (i == 0 || !IsPunct(toks[i - 1], ".")) &&
         (i == 0 || !IsPunct(toks[i - 1], "->"));
}

/// The hot-path-alloc diagnostic when toks[i] (an identifier) starts a
/// heap allocation — `new`, make_unique/make_shared, std::function
/// materialization, owning-container construction, insertion into an
/// unordered container named in `unordered` — and "" otherwise.
std::string AllocationAt(const std::vector<const Token*>& toks, size_t i,
                         const std::set<std::string>& unordered) {
  static const std::set<std::string> kOwningContainers = {
      "vector", "string", "deque", "map", "set",
      "unordered_map", "unordered_set", "multimap", "multiset",
  };
  const std::string& s = toks[i]->text;
  const bool member =
      i > 0 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"));
  if (s == "new" && !member) {
    return "'new' on a hot path allocates per iteration; hoist the buffer "
           "into caller-owned scratch (see SamplerScratch)";
  }
  if (!member && (s == "make_unique" || s == "make_shared")) {
    return "std::" + s +
           " on a hot path allocates per iteration; construct the object "
           "once outside and reuse it";
  }
  const bool std_qualified =
      i >= 2 && IsPunct(toks[i - 1], "::") && IsIdent(toks[i - 2], "std");
  if (std_qualified && s == "function") {
    return "std::function on a hot path type-erases (and usually "
           "heap-allocates) per materialization; take a gnndm::FunctionRef "
           "(common/function_ref.h) instead";
  }
  if (std_qualified && kOwningContainers.count(s) > 0) {
    // `using X = std::vector<...>` defines a type, allocates nothing.
    if (i >= 5 && IsPunct(toks[i - 3], "=") &&
        IsIdent(toks[i - 5], "using")) {
      return "";
    }
    size_t j = i + 1;
    if (j < toks.size() && IsPunct(toks[j], "<")) {
      j = SkipTemplateArgs(toks, j);
    }
    // A reference/pointer to an existing container, or nested type
    // access (std::vector<T>::iterator), does not allocate.
    if (j < toks.size() &&
        (IsPunct(toks[j], "&") || IsPunct(toks[j], "*") ||
         IsPunct(toks[j], "::") || IsIdent(toks[j], "const"))) {
      return "";
    }
    if (IsStaticDecl(toks, i - 2)) return "";  // allocates once
    return "constructing a std::" + s +
           " on a hot path allocates per iteration; hoist it above the "
           "loop / ParallelFor and reuse its capacity";
  }
  if (member && (s == "insert" || s == "emplace" || s == "try_emplace") &&
      i >= 2 && toks[i - 2]->kind == TokKind::kIdent &&
      unordered.count(toks[i - 2]->text) > 0) {
    return "insertion into unordered container '" + toks[i - 2]->text +
           "' on a hot path allocates a node (and may rehash) per key; "
           "pre-size a flat structure or renumber with VertexRenumberer "
           "scratch";
  }
  return "";
}

// Intrinsic effect patterns over one of a function's own body segments:
// the allocation patterns, then the leaf operations the wrapped
// lock/wait/IO primitives bottom out in.
void ScanSegment(const SourceFile& sf, const std::vector<const Token*>& toks,
                 const std::set<std::string>& unordered, size_t lo, size_t hi,
                 const std::vector<uint32_t>& loop_depth, FunctionInfo& fn) {
  for (size_t i = lo; i < hi && i < toks.size(); ++i) {
    if (sf.in_pp[i]) continue;
    const Token* t = toks[i];
    if (t->kind != TokKind::kIdent) continue;

    uint8_t effect = 0;
    std::string what = AllocationAt(toks, i, unordered);
    if (!what.empty()) {
      effect = kEffAllocates;
    } else if (IsMemberCallTo(toks, i, "lock") ||
               IsMemberCallTo(toks, i, "try_lock")) {
      effect = kEffLocks;
      what = "." + t->text + "()";
    } else if (IsMemberCallTo(toks, i, "wait") ||
               IsMemberCallTo(toks, i, "wait_for") ||
               IsMemberCallTo(toks, i, "wait_until") ||
               IsMemberCallTo(toks, i, "join")) {
      effect = kEffBlocks;
      what = "." + t->text + "()";
    } else if (IsCallTo(toks, i, "sleep_for") ||
               IsCallTo(toks, i, "sleep_until")) {
      effect = kEffBlocks;
      what = t->text + "()";
    } else if (IsCallTo(toks, i, "fopen") || IsCallTo(toks, i, "fclose") ||
               IsCallTo(toks, i, "fread") || IsCallTo(toks, i, "fwrite") ||
               IsCallTo(toks, i, "fseek") || IsCallTo(toks, i, "fflush") ||
               IsCallTo(toks, i, "fprintf") ||
               IsCallTo(toks, i, "fscanf") || IsCallTo(toks, i, "fgets") ||
               IsCallTo(toks, i, "fputs") || IsCallTo(toks, i, "getline")) {
      effect = kEffIo;
      what = t->text + "()";
    } else if ((IsIdent(t, "ifstream") || IsIdent(t, "ofstream") ||
                IsIdent(t, "fstream") || IsIdent(t, "cout") ||
                IsIdent(t, "cerr") || IsIdent(t, "clog") ||
                IsIdent(t, "cin")) &&
               i > 0 && IsPunct(toks[i - 1], "::")) {
      effect = kEffIo;
      what = "std::" + t->text;
    }
    if (effect == 0) continue;
    // Loop containment relative to the owning function: a loop around a
    // lambda's definition does not run the lambda's body per iteration.
    const bool in_loop =
        i < loop_depth.size() && loop_depth[i] > fn.body_depth;
    fn.origins.push_back({effect, t->line, what, in_loop});
  }
}

std::string Hop(const FunctionInfo& fn, const std::string& rel, size_t line) {
  return fn.qual + " (" + rel + ":" + std::to_string(line) + ")";
}

/// One contract walk: from each root, every origin of `effects` that runs
/// per iteration (inside a loop of the visited function, or anywhere below
/// a looped call) is a finding; `src/common/` callees are not entered, and
/// their transitive effects are reported at the call into them.
struct Walker {
  const std::vector<SourceFile>& files;
  const CallGraph& g;
  const char* rule;
  uint8_t effects;
  std::string ctx;  // parallel-context: "ParallelFor body" / ...
  std::set<std::pair<std::string, size_t>> reported;
  std::map<size_t, uint8_t> visited;  // fn -> state bits (1<<looped)

  void Emit(const std::string& rel, size_t line, const std::string& msg,
            const std::vector<std::string>& chain) {
    if (!reported.insert({rel, line}).second) return;
    ReportChain(rel, line, rule, msg, chain);
  }

  void Walk(size_t fi, bool looped, std::vector<std::string>& chain) {
    const uint8_t bit = looped ? 2 : 1;
    uint8_t& state = visited[fi];
    if ((state & bit) != 0) return;
    state |= bit;
    const FunctionInfo& fn = g.fns[fi];
    const std::string& rel = files[fn.file].rel;

    for (const EffectOrigin& o : fn.origins) {
      if ((o.effect & effects) == 0 || (!looped && !o.in_loop)) continue;
      if (effects == kEffAllocates) {
        Emit(rel, o.line, o.what, chain);
      } else {
        Emit(rel, o.line,
             "`" + o.what + "` [" + EffectNames(o.effect) +
                 "] executes inside a " + ctx +
                 "; move it out of the parallel region or add a justified "
                 "suppression",
             chain);
      }
    }
    for (size_t si : fn.sites) {
      const CallSite& s = g.sites[si];
      if (s.static_decl) continue;  // runs once, first call only
      const bool l2 = looped || s.in_loop;
      for (size_t c : s.callees) {
        const FunctionInfo& callee = g.fns[c];
        const std::string& crel = files[callee.file].rel;
        if (IsBoundaryFile(crel)) continue;
        if (!IsInfraFile(crel)) {
          chain.push_back(Hop(callee, rel, s.line));
          Walk(c, l2, chain);
          chain.pop_back();
          continue;
        }
        const uint8_t bad = callee.effects & effects;
        if (bad == 0 || !l2) continue;
        if (effects == kEffAllocates) {
          Emit(rel, s.line,
               "`" + s.name + "` -> " + callee.qual +
                   " allocates on every iteration of a hot loop; hoist the "
                   "allocation into caller-owned scratch",
               chain);
        } else {
          Emit(rel, s.line,
               "`" + s.name + "` -> " + callee.qual + " [" +
                   EffectNames(bad) + "] is reachable from a " + ctx +
                   "; hoist the call out of the loop, pre-resolve the "
                   "handle at setup, or add a justified suppression",
               chain);
        }
      }
    }
  }

  void WalkFrom(size_t root, bool looped) {
    const FunctionInfo& fn = g.fns[root];
    visited.clear();
    std::vector<std::string> chain = {Hop(fn, files[fn.file].rel, fn.line)};
    Walk(root, looped, chain);
  }
};

// Roots ordered by (file, line) so findings come out deterministic.
std::vector<size_t> SortedRoots(const std::vector<SourceFile>& files,
                                const CallGraph& g,
                                bool (*is_root)(const FunctionInfo&)) {
  std::vector<size_t> roots;
  for (size_t i = 0; i < g.fns.size(); ++i) {
    if (is_root(g.fns[i])) roots.push_back(i);
  }
  std::sort(roots.begin(), roots.end(), [&](size_t a, size_t b) {
    const FunctionInfo& fa = g.fns[a];
    const FunctionInfo& fb = g.fns[b];
    if (files[fa.file].rel != files[fb.file].rel) {
      return files[fa.file].rel < files[fb.file].rel;
    }
    if (fa.line != fb.line) return fa.line < fb.line;
    return fa.qual < fb.qual;
  });
  return roots;
}

void AppendEffectArray(std::string& out, uint8_t mask) {
  out += "[";
  bool first = true;
  for (uint8_t bit = 1; bit <= kEffIo; bit <<= 1) {
    if ((mask & bit) == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += EffectNames(bit);
    out += '"';
  }
  out += "]";
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

void ComputeEffects(const std::vector<SourceFile>& files, CallGraph& g) {
  std::vector<std::set<std::string>> unordered(files.size());
  for (size_t f = 0; f < files.size(); ++f) {
    unordered[f] = UnorderedNames(g.toks[f]);
  }
  for (FunctionInfo& fn : g.fns) {
    const SourceFile& sf = files[fn.file];
    if (IsBoundaryFile(sf.rel)) continue;  // audited substrate: no effects
    for (const auto& [lo, hi] : fn.segments) {
      ScanSegment(sf, g.toks[fn.file], unordered[fn.file], lo, hi,
                  g.loop_depth[fn.file], fn);
    }
    for (const EffectOrigin& o : fn.origins) fn.own_effects |= o.effect;
    fn.effects = fn.own_effects;
  }

  // Bottom-up fixpoint (handles recursion and virtual-dispatch cycles).
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < g.fns.size(); ++i) {
      FunctionInfo& fn = g.fns[i];
      if (IsBoundaryFile(files[fn.file].rel)) continue;
      uint8_t e = fn.effects;
      for (size_t si : fn.sites) {
        for (size_t c : g.sites[si].callees) e |= g.fns[c].effects;
      }
      if (e != fn.effects) {
        fn.effects = e;
        changed = true;
      }
    }
  }
}

void CheckParallelContext(const std::vector<SourceFile>& files,
                          const CallGraph& g) {
  Walker w{files, g, "parallel-context", kForbiddenInParallel, "", {}, {}};
  for (size_t root : SortedRoots(files, g, [](const FunctionInfo& fn) {
         return fn.parallel_root || fn.producer_root;
       })) {
    const FunctionInfo& fn = g.fns[root];
    w.ctx = fn.parallel_root ? "ParallelFor body" : "producer-thread loop";
    // A ParallelFor body re-runs per chunk: everything in it is looped.
    // A producer thread body runs once; only its loops are steady-state.
    w.WalkFrom(root, fn.parallel_root);
  }
}

void CheckHotPathAlloc(const std::vector<SourceFile>& files,
                       const CallGraph& g) {
  Walker w{files, g, "hot-path-alloc", kEffAllocates, "", {}, {}};
  for (size_t root : SortedRoots(files, g, [](const FunctionInfo& fn) {
         return (fn.hot && !fn.is_lambda) || fn.parallel_root;
       })) {
    // A // gnndm-hot function allocates per call only inside its loops;
    // a ParallelFor body, like above, is looped throughout.
    w.WalkFrom(root, g.fns[root].parallel_root);
  }
}

void WriteEffectsJson(const std::string& path,
                      const std::vector<SourceFile>& files,
                      const CallGraph& g) {
  std::string out = "{\n  \"stats\": {\n";
  const CallGraphStats& st = g.stats;
  out += "    \"functions\": " + std::to_string(st.functions) + ",\n";
  out += "    \"lambdas\": " + std::to_string(st.lambdas) + ",\n";
  out += "    \"src_call_sites\": " + std::to_string(st.src_call_sites) +
         ",\n";
  out += "    \"resolved_repo\": " + std::to_string(st.resolved_repo) + ",\n";
  out += "    \"external\": " + std::to_string(st.external) + ",\n";
  out += "    \"callable_param\": " + std::to_string(st.callable_param) +
         ",\n";
  out += "    \"unresolved\": " + std::to_string(st.unresolved) + ",\n";
  const size_t total = st.src_call_sites;
  const size_t pct10 =
      total == 0 ? 1000 : ((total - st.unresolved) * 1000 + total / 2) / total;
  out += "    \"resolved_pct\": " + std::to_string(pct10 / 10) + "." +
         std::to_string(pct10 % 10) + "\n  },\n  \"functions\": [\n";

  // Functions in (file, line, qual) order.
  std::vector<size_t> order(g.fns.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const FunctionInfo& fa = g.fns[a];
    const FunctionInfo& fb = g.fns[b];
    if (files[fa.file].rel != files[fb.file].rel) {
      return files[fa.file].rel < files[fb.file].rel;
    }
    if (fa.line != fb.line) return fa.line < fb.line;
    return fa.qual < fb.qual;
  });
  bool first = true;
  for (size_t i : order) {
    const FunctionInfo& fn = g.fns[i];
    if (!first) out += ",\n";
    first = false;
    out += "    {\"qual\": \"" + json::Escape(fn.qual) + "\", \"file\": \"" +
           json::Escape(files[fn.file].rel) + "\", \"line\": " +
           std::to_string(fn.line) + ", \"hot\": " +
           (fn.hot ? "true" : "false") + ", \"root\": \"" +
           (fn.parallel_root ? "parallel"
                             : (fn.producer_root ? "producer" : "")) +
           "\", \"own\": ";
    AppendEffectArray(out, fn.own_effects);
    out += ", \"effects\": ";
    AppendEffectArray(out, fn.effects);
    out += ", \"calls\": [";
    std::set<std::string> quals;
    for (size_t si : fn.sites) {
      for (size_t c : g.sites[si].callees) quals.insert(g.fns[c].qual);
    }
    bool fc = true;
    for (const std::string& q : quals) {
      if (!fc) out += ", ";
      fc = false;
      out += '"';
      out += json::Escape(q);
      out += '"';
    }
    out += "]}";
  }
  out += "\n  ]\n}\n";

  std::FILE* fp = std::fopen(path.c_str(), "wb");
  if (fp == nullptr) {
    std::fprintf(stderr, "gnndm_lint: cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(out.data(), 1, out.size(), fp);
  std::fclose(fp);
}

}  // namespace gnndm_lint
