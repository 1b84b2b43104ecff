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

// Intrinsic effect patterns over one body segment (children excluded by
// the caller). AllocationSites supplies `allocates`; the rest are the
// leaf operations the wrapped primitives bottom out in.
void ScanSegment(const SourceFile& sf, const std::vector<const Token*>& toks,
                 const std::set<std::string>& unordered, size_t lo, size_t hi,
                 const std::vector<uint32_t>& loop_depth, FunctionInfo& fn) {
  // Loop containment relative to the owning function (the absolute
  // kInLoop bit would leak an enclosing loop into a nested lambda).
  auto rel_in_loop = [&](size_t idx) {
    return idx < loop_depth.size() && loop_depth[idx] > fn.body_depth;
  };
  for (const AllocSite& a :
       AllocationSites(toks, lo, hi, unordered, sf.tok_flags)) {
    const uint8_t fl =
        a.tok_index < sf.tok_flags.size() ? sf.tok_flags[a.tok_index] : 0;
    fn.origins.push_back({kEffAllocates, a.line, a.message,
                          rel_in_loop(a.tok_index),
                          (fl & kInParallel) != 0});
  }
  for (size_t i = lo; i < hi && i < toks.size(); ++i) {
    const uint8_t fl = i < sf.tok_flags.size() ? sf.tok_flags[i] : 0;
    if ((fl & kPp) != 0) continue;
    const Token* t = toks[i];
    if (t->kind != TokKind::kIdent) continue;

    uint8_t effect = 0;
    std::string what;
    if (IsMemberCallTo(toks, i, "lock") ||
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
    } else if (IsCallTo(toks, i, "rand") || IsCallTo(toks, i, "srand") ||
               IsCallTo(toks, i, "rand_r") ||
               IsCallTo(toks, i, "drand48")) {
      effect = kEffRawRng;
      what = t->text + "()";
    } else if (IsIdent(t, "random_device")) {
      effect = kEffRawRng;
      what = "random_device";
    }
    if (effect == 0) continue;
    fn.origins.push_back(
        {effect, t->line, what, rel_in_loop(i), (fl & kInParallel) != 0});
  }
}

std::string Hop(const FunctionInfo& fn, const std::string& rel, size_t line) {
  return fn.qual + " (" + rel + ":" + std::to_string(line) + ")";
}

struct Walker {
  const std::vector<SourceFile>& files;
  const CallGraph& g;
  const char* rule;
  std::string ctx;  // "ParallelFor body" / "producer-thread loop" / ...
  std::set<std::pair<std::string, size_t>> reported;
  std::map<size_t, uint8_t> visited;  // fn -> state bits (1<<looped)

  bool Descendable(size_t fn) const {
    const std::string& rel = files[g.fns[fn].file].rel;
    return StartsWith(rel, "src/") && !IsInfraFile(rel) &&
           !IsBoundaryFile(rel);
  }

  void Emit(const std::string& rel, size_t line, const std::string& msg,
            const std::vector<std::string>& chain) {
    if (!reported.insert({rel, line}).second) return;
    ReportChain(rel, line, rule, msg, chain);
  }
};

// ---------------------------------------------------------------------------
// parallel-context
// ---------------------------------------------------------------------------

void WalkParallel(Walker& w, size_t fi, bool looped,
                  std::vector<std::string>& chain) {
  const uint8_t bit = looped ? 2 : 1;
  uint8_t& state = w.visited[fi];
  if ((state & bit) != 0) return;
  state |= bit;
  const FunctionInfo& fn = w.g.fns[fi];
  const std::string& rel = w.files[fn.file].rel;

  for (const EffectOrigin& o : fn.origins) {
    if ((o.effect & kForbiddenInParallel) == 0) continue;
    if (!looped && !o.in_loop) continue;
    w.Emit(rel, o.line,
           "`" + o.what + "` [" + EffectNames(o.effect) +
               "] executes inside a " + w.ctx +
               "; move it out of the parallel region or add a justified "
               "suppression",
           chain);
  }
  for (size_t si : fn.sites) {
    const CallSite& s = w.g.sites[si];
    if (s.static_decl) continue;  // runs once, first call only
    const bool l2 = looped || s.in_loop;
    for (size_t c : s.callees) {
      const FunctionInfo& callee = w.g.fns[c];
      if (IsBoundaryFile(w.files[callee.file].rel)) continue;
      if (w.Descendable(c)) {
        chain.push_back(Hop(callee, rel, s.line));
        WalkParallel(w, c, l2, chain);
        chain.pop_back();
        continue;
      }
      const uint8_t bad = callee.effects & kForbiddenInParallel;
      if (bad == 0 || !l2) continue;
      w.Emit(rel, s.line,
             "`" + s.name + "` -> " + callee.qual + " [" +
                 EffectNames(bad) + "] is reachable from a " + w.ctx +
                 "; hoist the call out of the loop, pre-resolve the handle "
                 "at setup, or add a justified suppression",
             chain);
    }
  }
}

// ---------------------------------------------------------------------------
// hot-transitive-alloc
// ---------------------------------------------------------------------------

void WalkHot(Walker& w, size_t fi, bool looped,
             std::vector<std::string>& chain) {
  const uint8_t bit = looped ? 2 : 1;
  uint8_t& state = w.visited[fi];
  if ((state & bit) != 0) return;
  state |= bit;
  const FunctionInfo& fn = w.g.fns[fi];
  const std::string& rel = w.files[fn.file].rel;

  for (const EffectOrigin& o : fn.origins) {
    if ((o.effect & kEffAllocates) == 0) continue;
    if (!looped && !o.in_loop) continue;
    // The per-file hot-path-alloc rule already owns the directly-hot
    // in-loop and in-parallel cases; this rule adds the transitive ones.
    if (o.in_parallel) continue;
    if (fn.hot && o.in_loop) continue;
    w.Emit(rel, o.line,
           o.what + " (reached from a // gnndm-hot function)", chain);
  }
  for (size_t si : fn.sites) {
    const CallSite& s = w.g.sites[si];
    if (s.static_decl) continue;
    const bool l2 = looped || s.in_loop || s.in_parallel;
    for (size_t c : s.callees) {
      const FunctionInfo& callee = w.g.fns[c];
      if (IsBoundaryFile(w.files[callee.file].rel)) continue;
      if (w.Descendable(c)) {
        chain.push_back(Hop(callee, rel, s.line));
        WalkHot(w, c, l2, chain);
        chain.pop_back();
        continue;
      }
      if ((callee.effects & kEffAllocates) == 0 || !l2) continue;
      w.Emit(rel, s.line,
             "`" + s.name + "` -> " + callee.qual +
                 " allocates on every iteration of a hot loop; hoist the "
                 "allocation into caller-owned scratch",
             chain);
    }
  }
}

// Roots ordered by (file, line) so findings come out deterministic.
std::vector<size_t> SortedRoots(const std::vector<SourceFile>& files,
                                const CallGraph& g, bool parallel, bool hot) {
  std::vector<size_t> roots;
  for (size_t i = 0; i < g.fns.size(); ++i) {
    const FunctionInfo& fn = g.fns[i];
    if (parallel && (fn.parallel_root || fn.producer_root)) roots.push_back(i);
    if (hot && fn.hot && !fn.is_lambda) roots.push_back(i);
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
  static const std::pair<uint8_t, const char*> kNames[] = {
      {kEffAllocates, "allocates"}, {kEffLocks, "locks"},
      {kEffBlocks, "blocks"},       {kEffIo, "io"},
      {kEffRawRng, "raw-rng"}};
  for (const auto& [bit, nm] : kNames) {
    if ((mask & bit) == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"";
    out += nm;
    out += "\"";
  }
  out += "]";
}

// src/ function indices in (file, line, qual) order.
std::vector<size_t> SortedSrcFns(const std::vector<SourceFile>& files,
                                 const CallGraph& g) {
  std::vector<size_t> idx;
  for (size_t i = 0; i < g.fns.size(); ++i) {
    if (files[g.fns[i].file].InDir("src/")) idx.push_back(i);
  }
  std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    const FunctionInfo& fa = g.fns[a];
    const FunctionInfo& fb = g.fns[b];
    if (files[fa.file].rel != files[fb.file].rel) {
      return files[fa.file].rel < files[fb.file].rel;
    }
    if (fa.line != fb.line) return fa.line < fb.line;
    return fa.qual < fb.qual;
  });
  return idx;
}

std::vector<std::string> SortedCallees(const CallGraph& g,
                                       const FunctionInfo& fn) {
  std::set<std::string> quals;
  for (size_t si : fn.sites) {
    for (size_t c : g.sites[si].callees) quals.insert(g.fns[c].qual);
  }
  return {quals.begin(), quals.end()};
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

void ComputeEffects(const std::vector<SourceFile>& files, CallGraph& g) {
  // Per-file shared context.
  std::vector<std::vector<const Token*>> toks;
  std::vector<std::set<std::string>> unordered;
  toks.reserve(files.size());
  unordered.reserve(files.size());
  for (const SourceFile& f : files) {
    toks.push_back(CodeTokens(f));
    unordered.push_back(UnorderedNames(toks.back()));
  }
  // Child body ranges to exclude (each lambda owns its own effects).
  std::vector<std::vector<std::pair<size_t, size_t>>> skips(g.fns.size());
  for (const FunctionInfo& fn : g.fns) {
    if (fn.parent != kNoFn) {
      skips[fn.parent].push_back({fn.body_begin, fn.body_end});
    }
  }
  for (auto& s : skips) std::sort(s.begin(), s.end());

  for (size_t i = 0; i < g.fns.size(); ++i) {
    FunctionInfo& fn = g.fns[i];
    const SourceFile& sf = files[fn.file];
    if (IsBoundaryFile(sf.rel)) continue;  // audited substrate: no effects
    size_t lo = fn.body_begin + 1;
    const size_t hi = fn.body_end > 0 ? fn.body_end - 1 : fn.body_begin;
    for (const auto& [cs, ce] : skips[i]) {
      if (cs > lo) {
        ScanSegment(sf, toks[fn.file], unordered[fn.file], lo,
                    std::min(cs, hi), g.loop_depth[fn.file], fn);
      }
      lo = std::max(lo, ce);
    }
    if (lo < hi) {
      ScanSegment(sf, toks[fn.file], unordered[fn.file], lo, hi,
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
  Walker w{files, g, "parallel-context", "", {}, {}};
  for (size_t root : SortedRoots(files, g, /*parallel=*/true, /*hot=*/false)) {
    const FunctionInfo& fn = g.fns[root];
    w.ctx = fn.parallel_root ? "ParallelFor body" : "producer-thread loop";
    w.visited.clear();
    std::vector<std::string> chain = {
        Hop(fn, files[fn.file].rel, fn.line)};
    // A ParallelFor body re-runs per chunk: everything in it is looped.
    // A producer thread body runs once; only its loops are steady-state.
    WalkParallel(w, root, fn.parallel_root, chain);
  }
}

void CheckHotTransitiveAlloc(const std::vector<SourceFile>& files,
                             const CallGraph& g) {
  Walker w{files, g, "hot-transitive-alloc", "hot path", {}, {}};
  for (size_t root : SortedRoots(files, g, /*parallel=*/false, /*hot=*/true)) {
    const FunctionInfo& fn = g.fns[root];
    w.visited.clear();
    std::vector<std::string> chain = {
        Hop(fn, files[fn.file].rel, fn.line)};
    WalkHot(w, root, /*looped=*/false, chain);
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

  bool first = true;
  for (size_t i : SortedSrcFns(files, g)) {
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
    bool fc = true;
    for (const std::string& q : SortedCallees(g, fn)) {
      if (!fc) out += ", ";
      fc = false;
      out += "\"" + json::Escape(q) + "\"";
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

void WriteEffectsDot(const std::string& path,
                     const std::vector<SourceFile>& files,
                     const CallGraph& g) {
  // Nodes: src/ functions that carry effects or anchor a contract.
  std::set<size_t> keep;
  for (size_t i : SortedSrcFns(files, g)) {
    const FunctionInfo& fn = g.fns[i];
    if (fn.effects != 0 || fn.hot || fn.parallel_root || fn.producer_root) {
      keep.insert(i);
    }
  }
  std::string out = "digraph effects {\n  rankdir=LR;\n  node [shape=box, "
                    "fontsize=10];\n";
  for (size_t i : SortedSrcFns(files, g)) {
    if (keep.count(i) == 0) continue;
    const FunctionInfo& fn = g.fns[i];
    std::string attrs = "label=\"" + json::Escape(fn.qual) + "\\n[" +
                        EffectNames(fn.effects) + "]\"";
    if (fn.hot) attrs += ", color=red";
    if (fn.parallel_root || fn.producer_root) attrs += ", style=bold";
    out += "  \"" + json::Escape(fn.qual) + "\" [" + attrs + "];\n";
  }
  for (size_t i : SortedSrcFns(files, g)) {
    if (keep.count(i) == 0) continue;
    const FunctionInfo& fn = g.fns[i];
    for (const std::string& q : SortedCallees(g, fn)) {
      // Only edges between kept nodes, to keep the graph readable.
      bool found = false;
      for (size_t k : keep) {
        if (g.fns[k].qual == q) {
          found = true;
          break;
        }
      }
      if (!found) continue;
      out += "  \"" + json::Escape(fn.qual) + "\" -> \"" + json::Escape(q) +
             "\";\n";
    }
  }
  out += "}\n";

  std::FILE* fp = std::fopen(path.c_str(), "wb");
  if (fp == nullptr) {
    std::fprintf(stderr, "gnndm_lint: cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(out.data(), 1, out.size(), fp);
  std::fclose(fp);
}

}  // namespace gnndm_lint
