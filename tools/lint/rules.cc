#include "lint/rules.h"

#include <cctype>

namespace gnndm_lint {

namespace {

void CheckIncludeGuard(const SourceFile& f) {
  if (!f.is_header) return;
  const std::string guard = ExpectedGuard(f.rel);
  bool has_ifndef = false, has_define = false;
  for (const auto& line : f.lines) {
    if (line.find("#ifndef " + guard) != std::string::npos) has_ifndef = true;
    if (line.find("#define " + guard) != std::string::npos) has_define = true;
  }
  if (!has_ifndef || !has_define) {
    Report(f, 0, "include-guard", "header must use include guard " + guard);
  }
}

// std::thread is allowed only where a worker thread is genuinely owned
// and its shared state is annotated; everything else goes through
// ThreadPool. Tests may spawn raw threads to provoke races.
const std::set<std::string> kThreadAllowlist = {
    "src/common/thread_pool.h", "src/common/thread_pool.cc",
    "src/core/batch_source.h", "src/core/batch_source.cc",
};

/// std::thread::id and std::thread::hardware_concurrency() name the class
/// without starting a thread.
bool NamesThreadMember(const std::vector<const Token*>& toks, size_t i) {
  return i + 4 < toks.size() && IsPunct(toks[i + 3], "::") &&
         (IsIdent(toks[i + 4], "id") ||
          IsIdent(toks[i + 4], "hardware_concurrency"));
}

void CheckConcurrencyPrimitives(const SourceFile& f,
                                const std::vector<const Token*>& toks) {
  // The wrapper itself, and the lock-order detector that sits beneath it
  // (which must use the raw std::mutex to avoid recursing into its own
  // hooks), are the only legal homes for the raw primitives.
  if (f.rel == "src/common/annotations.h" ||
      f.rel == "src/common/lock_order.h" ||
      f.rel == "src/common/lock_order.cc") {
    return;
  }
  static const char* kLockNames[] = {
      "mutex",       "condition_variable", "lock_guard",
      "unique_lock", "scoped_lock",        "shared_mutex",
      "recursive_mutex", "timed_mutex",    "condition_variable_any",
  };
  const bool thread_allowed =
      !f.InDir("src/") || kThreadAllowlist.count(f.rel) > 0;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], "std")) continue;
    for (const char* name : kLockNames) {
      if (IsStdQualified(toks, i, name)) {
        Report(f, toks[i]->line, "raw-lock",
               "std::" + std::string(name) +
                   " bypasses thread-safety analysis and the lock-order "
                   "graph; use gnndm::Mutex / MutexLock / CondVar from "
                   "common/annotations.h");
      }
    }
    if (!thread_allowed && IsStdQualified(toks, i, "thread") &&
        !NamesThreadMember(toks, i)) {
      Report(f, toks[i]->line, "raw-thread",
             "std::thread outside the audited concurrency surfaces; "
             "use ThreadPool or add the file to the lint allowlist "
             "after annotating its shared state");
    }
  }
}

/// Batch production is unified behind the BatchSource plane: src/ code
/// outside src/core/batch_source.{h,cc} must not name the producer-thread
/// implementation (AsyncBatchSource) or the retired AsyncBatchLoader.
void CheckBatchPlane(const SourceFile& f,
                     const std::vector<const Token*>& toks) {
  if (!f.InDir("src/")) return;
  if (f.rel == "src/core/batch_source.h" ||
      f.rel == "src/core/batch_source.cc") {
    return;
  }
  for (const Token* t : toks) {
    if (IsIdent(t, "AsyncBatchSource") || IsIdent(t, "AsyncBatchLoader")) {
      Report(f, t->line, "batch-plane",
             t->text +
                 " outside src/core/batch_source.{h,cc} fragments the "
                 "batch data plane; go through MakeBatchSource");
    }
  }
}

void CheckAssert(const SourceFile& f, const std::vector<const Token*>& toks) {
  if (!f.is_source || f.InDir("tests/")) return;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (IsIdent(toks[i], "assert") && IsPunct(toks[i + 1], "(")) {
      Report(f, toks[i]->line, "assert-in-cc",
             "assert() in non-test code vanishes under -DNDEBUG without "
             "trace; use GNNDM_DCHECK (debug) or GNNDM_CHECK (always)");
    }
  }
}

void CheckDeserializationValidates(const SourceFile& f,
                                   const std::vector<const Token*>& toks) {
  if (!f.is_source || !f.InDir("src/")) return;
  bool reads_binary = false, has_ifstream = false, has_validate = false;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (IsIdent(toks[i], "binary") && i >= 2 && IsPunct(toks[i - 1], "::") &&
        IsIdent(toks[i - 2], "ios")) {
      reads_binary = true;
    }
    if (toks[i]->kind == TokKind::kIdent &&
        toks[i]->text.find("ifstream") != std::string::npos) {
      has_ifstream = true;
    }
    // Any Validate* call counts (Validate, ValidateLoadedTensor, ...);
    // comments mentioning validation do not — tokens only.
    if (toks[i]->kind == TokKind::kIdent &&
        toks[i]->text.rfind("Validate", 0) == 0) {
      has_validate = true;
    }
  }
  if (reads_binary && has_ifstream && !has_validate) {
    Report(f, 0, "deserialize-validate",
           "binary deserializer must run a Validate() pass over the "
           "decoded structures before returning them");
  }
}

/// The pipeline-stage directories must not time work outside the span
/// tracer: a raw WallTimer there produces numbers telemetry (and the
/// EpochStats reconciliation test) cannot see.
void CheckTimerUse(const SourceFile& f,
                   const std::vector<const Token*>& toks) {
  if (!f.is_source ||
      (!f.InDir("src/core/") && !f.InDir("src/transfer/") &&
       !f.InDir("src/sampling/"))) {
    return;
  }
  for (const Token* t : toks) {
    if (IsIdent(t, "WallTimer")) {
      Report(f, t->line, "raw-timer",
             "direct WallTimer in a pipeline-stage directory escapes the "
             "telemetry breakdown; use TRACE_SPAN(\"subsystem.name\") or "
             "add a justified suppression");
    }
  }
}

/// Determinism rule: iteration over std::unordered_map/unordered_set in
/// src/ — the iteration order is implementation-defined (libstdc++,
/// libc++, and different bucket counts all disagree), so any traversal
/// feeding computation or output is a reproducibility bug waiting for a
/// toolchain bump. Flags (a) range-for statements whose range expression
/// names an unordered container, and (b) explicit .begin()/.end() family
/// calls on one.
void CheckUnorderedIteration(const SourceFile& f,
                             const std::vector<const Token*>& toks) {
  if (!f.InDir("src/")) return;
  const std::set<std::string> names = UnorderedNames(toks);
  if (names.empty()) return;

  for (size_t i = 0; i < toks.size(); ++i) {
    // (a) for ( ... : <expr naming an unordered var> )
    if (IsIdent(toks[i], "for") && i + 1 < toks.size() &&
        IsPunct(toks[i + 1], "(")) {
      long depth = 0;
      size_t colon = 0;
      size_t close = 0;
      for (size_t j = i + 1; j < toks.size(); ++j) {
        if (IsPunct(toks[j], "(")) ++depth;
        if (IsPunct(toks[j], ")") && --depth == 0) {
          close = j;
          break;
        }
        if (depth == 1 && colon == 0 && IsPunct(toks[j], ":")) colon = j;
      }
      if (colon != 0 && close != 0) {
        for (size_t j = colon + 1; j < close; ++j) {
          if (toks[j]->kind == TokKind::kIdent &&
              names.count(toks[j]->text) > 0) {
            Report(f, toks[i]->line, "unordered-iteration",
                   "range-for over unordered container '" + toks[j]->text +
                       "': iteration order is implementation-defined and "
                       "breaks byte-identical output; sort the keys or "
                       "keep a parallel insertion-order vector");
            break;
          }
        }
      }
    }
    // (b) <unordered var> [...].begin() / .cbegin() — the start of an
    // explicit iterator traversal. A bare .end() is not flagged: it is
    // almost always the `find() != end()` membership idiom. A member
    // access `other.name.begin()` is skipped too — the collected names
    // are file-local declarations, not members of foreign structs.
    if (toks[i]->kind == TokKind::kIdent && names.count(toks[i]->text) > 0 &&
        !(i > 0 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->")))) {
      size_t j = i + 1;
      while (j + 1 < toks.size() && IsPunct(toks[j], "[")) {
        long depth = 0;
        for (; j < toks.size(); ++j) {
          if (IsPunct(toks[j], "[")) ++depth;
          if (IsPunct(toks[j], "]") && --depth == 0) {
            ++j;
            break;
          }
        }
      }
      if (j + 1 < toks.size() && IsPunct(toks[j], ".") &&
          (IsIdent(toks[j + 1], "begin") ||
           IsIdent(toks[j + 1], "cbegin"))) {
        Report(f, toks[i]->line, "unordered-iteration",
               "iterator traversal of unordered container '" +
                   toks[i]->text +
                   "' is order-unstable; sort the keys first");
      }
    }
  }
}

/// True when toks[i] names some other function than libc's: it follows
/// `.` or `->` (foo.time() is not ::time()), a qualifier other than std
/// (`SimClock::time()`), or a type (`double time() const` declares one).
bool NamesOtherFunction(const std::vector<const Token*>& toks, size_t i) {
  if (i == 0) return false;
  const Token* prev = toks[i - 1];
  if (IsPunct(prev, ".") || IsPunct(prev, "->")) return true;
  if (IsPunct(prev, "::")) {
    return i >= 2 && toks[i - 2]->kind == TokKind::kIdent &&
           !IsIdent(toks[i - 2], "std");
  }
  // Keywords after which an expression, and so a call, can start.
  static const std::set<std::string> kExpressionKeywords = {
      "return",   "else",     "do",     "case", "throw", "co_return",
      "co_yield", "co_await", "sizeof", "not",  "and",   "or",
  };
  return prev->kind == TokKind::kIdent &&
         kExpressionKeywords.count(prev->text) == 0;
}

/// Determinism rule: every random draw flows from a seeded gnndm::Rng.
/// rand()/srand()/clock()/time() and std::random_device are either
/// schedule-, wall-clock-, or entropy-dependent; a single call anywhere
/// on a training path silently breaks run-to-run reproducibility.
void CheckRawRng(const SourceFile& f, const std::vector<const Token*>& toks) {
  if (!f.InDir("src/") && !f.InDir("tools/") && !f.InDir("bench/")) return;
  if (f.rel == "src/common/rng.h" || f.rel == "src/common/rng.cc") return;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token* t = toks[i];
    if (t->kind != TokKind::kIdent) continue;
    if (IsIdent(t, "random_device")) {
      Report(f, t->line, "raw-rng",
             "std::random_device draws nondeterministic entropy; seed a "
             "gnndm::Rng (common/rng.h) instead");
      continue;
    }
    const bool call_like =
        i + 1 < toks.size() && IsPunct(toks[i + 1], "(");
    if (!call_like) continue;
    if (NamesOtherFunction(toks, i)) continue;
    if (IsIdent(t, "rand") || IsIdent(t, "srand") || IsIdent(t, "time") ||
        IsIdent(t, "clock")) {
      Report(f, t->line, "raw-rng",
             t->text +
                 "() is wall-clock/entropy-dependent; all randomness and "
                 "timing must flow from gnndm::Rng seeds or the telemetry "
                 "clocks");
    }
  }
}

/// Isolation rule: raw SIMD intrinsics, vector types, and vector-ISA
/// feature tests may appear only in the per-tier kernel TUs
/// (src/tensor/simd*) and the cpuid probe (src/common/cpu_features.*).
/// Everything else calls through the dispatched SimdKernels table, so
/// the fixed-lane determinism contract has exactly one audit surface and
/// business logic cannot grow silent per-ISA forks.
void CheckSimdIsolation(const SourceFile& f,
                        const std::vector<const Token*>& toks) {
  if (!f.InDir("src/") && !f.InDir("tools/") && !f.InDir("bench/") &&
      !f.InDir("tests/")) {
    return;
  }
  if (f.rel.rfind("src/tensor/simd", 0) == 0) return;
  if (f.rel.rfind("src/common/cpu_features", 0) == 0) return;

  static const std::set<std::string> kIsaHeaders = {
      "immintrin.h", "x86intrin.h", "emmintrin.h", "xmmintrin.h",
      "smmintrin.h", "tmmintrin.h", "nmmintrin.h", "avxintrin.h",
      "arm_neon.h",  "arm_sve.h",
  };
  for (const IncludeDirective& inc : f.includes) {
    if (kIsaHeaders.count(inc.path) > 0) {
      Report(f, inc.line, "simd-isolation",
             "#include <" + inc.path +
                 "> outside src/tensor/simd*: raw intrinsics live behind "
                 "the dispatched SimdKernels table (tensor/simd.h)");
    }
  }

  auto is_vector_intrinsic = [](const std::string& s) {
    // x86: _mm_*/_mm256_*/_mm512_* calls and __m128/__m256/__m512 types.
    if (s.rfind("_mm", 0) == 0) return true;
    if (s.rfind("__m128", 0) == 0 || s.rfind("__m256", 0) == 0 ||
        s.rfind("__m512", 0) == 0) {
      return true;
    }
    // NEON: vector types (float32x4_t, uint32x4_t, ...) and the v*q_f32
    // style op names.
    if (s.rfind("float32x", 0) == 0 || s.rfind("float64x", 0) == 0 ||
        s.rfind("float16x", 0) == 0 || s.rfind("uint32x", 0) == 0 ||
        s.rfind("uint8x", 0) == 0 || s.rfind("int32x", 0) == 0 ||
        s.rfind("vld1", 0) == 0 || s.rfind("vst1", 0) == 0) {
      return true;
    }
    if (!s.empty() && s[0] == 'v' &&
        (s.find("q_f32") != std::string::npos ||
         s.find("q_u32") != std::string::npos ||
         s.find("q_s32") != std::string::npos ||
         s.find("_n_f32") != std::string::npos)) {
      return true;
    }
    return false;
  };
  for (const Token* t : toks) {
    if (t->kind != TokKind::kIdent) continue;
    if (is_vector_intrinsic(t->text)) {
      Report(f, t->line, "simd-isolation",
             "SIMD intrinsic '" + t->text +
                 "' outside src/tensor/simd*: add or extend a kernel in "
                 "the dispatched SimdKernels table instead");
    } else if (t->text == "__builtin_cpu_supports" ||
               t->text == "__builtin_cpu_init") {
      Report(f, t->line, "simd-isolation",
             "CPU feature probing outside src/common/cpu_features.*: use "
             "CpuHasAvx2Fma()/CpuHasAvx512()/CpuHasNeon() so tier "
             "selection has one truth");
    }
  }

  // Vector-ISA #if forks (architecture macros like __x86_64__ stay
  // legal — they gate compilation targets, not lane semantics).
  static const char* kIsaMacros[] = {"__AVX", "__SSE", "__FMA__",
                                     "__ARM_NEON", "__ARM_FEATURE"};
  const std::vector<bool> pp = PreprocessorLines(f.lines);
  for (size_t i = 0; i < f.lines.size(); ++i) {
    if (!pp[i + 1]) continue;
    for (const char* macro : kIsaMacros) {
      if (f.lines[i].find(macro) != std::string::npos) {
        Report(f, i + 1, "simd-isolation",
               std::string("vector-ISA preprocessor fork on ") + macro +
                   " outside src/tensor/simd*: per-tier code belongs in "
                   "the kernel TUs");
        break;
      }
    }
  }
}

/// Determinism rule: values derived from std::this_thread::get_id() are
/// pure scheduling artifacts. The telemetry layer identifies threads by
/// registration order (stable per run shape); nothing else may key state
/// or stats off a thread id.
void CheckThreadIdInStats(const SourceFile& f,
                          const std::vector<const Token*>& toks) {
  if (!f.InDir("src/")) return;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (IsIdent(toks[i], "get_id") && i >= 2 &&
        IsPunct(toks[i - 1], "::") && IsIdent(toks[i - 2], "this_thread")) {
      Report(f, toks[i]->line, "thread-id-in-stats",
             "std::this_thread::get_id() is schedule-dependent; key "
             "per-thread state off registration order (see "
             "telemetry::Tracer) so stats stay deterministic");
    }
  }
}

/// Names declared as scalar float/double variables: `double x =`,
/// `float y;`, `double z{...}`. Parameters and members are excluded by
/// requiring an initializer or plain `;` so the rule stays precise.
std::set<std::string> ScalarFloatNames(const std::vector<const Token*>& toks,
                                       size_t begin, size_t end) {
  std::set<std::string> names;
  if (end > toks.size()) end = toks.size();
  for (size_t i = begin; i + 2 < end; ++i) {
    if (!IsIdent(toks[i], "double") && !IsIdent(toks[i], "float")) continue;
    const Token* name = toks[i + 1];
    const Token* next = toks[i + 2];
    if (name->kind != TokKind::kIdent) continue;
    if (IsPunct(next, "=") || IsPunct(next, ";") || IsPunct(next, "{")) {
      names.insert(name->text);
    }
  }
  return names;
}

/// Determinism rule: accumulating into a shared scalar float inside a
/// ParallelFor body sums chunks in completion order — a different order
/// (and different rounding) every run, and usually a data race besides.
/// Element-wise updates (`out[i] += x`, `dst.row(r)[c] += v`) are fine:
/// each element is owned by exactly one chunk. Deterministic escape: keep
/// per-chunk partials and reduce in index order, then suppress with
/// `gnndm-lint: suppress(float-accum-in-parallel): <why ordered>`.
void CheckFloatAccumInParallel(const SourceFile& f,
                               const std::vector<const Token*>& toks) {
  if (!f.InDir("src/")) return;
  const std::set<std::string> floats =
      ScalarFloatNames(toks, 0, toks.size());
  if (floats.empty()) return;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i], "ParallelFor") &&
        !IsIdent(toks[i], "ParallelFor2D")) {
      continue;
    }
    if (!IsPunct(toks[i + 1], "(")) continue;
    long depth = 0;
    size_t end = toks.size();
    for (size_t j = i + 1; j < toks.size(); ++j) {
      if (IsPunct(toks[j], "(")) ++depth;
      if (IsPunct(toks[j], ")") && --depth == 0) {
        end = j;
        break;
      }
    }
    // A float declared *inside* the call extent (a lambda-body local) is
    // chunk-private: each invocation owns its own copy, so accumulating
    // into it is a deterministic per-chunk partial, not a shared sum.
    const std::set<std::string> extent_locals =
        ScalarFloatNames(toks, i + 2, end);
    for (size_t j = i + 2; j < end; ++j) {
      if (!IsPunct(toks[j], "+=") && !IsPunct(toks[j], "-=")) continue;
      const Token* lhs = toks[j - 1];
      if (lhs->kind != TokKind::kIdent || floats.count(lhs->text) == 0 ||
          extent_locals.count(lhs->text) > 0) {
        continue;
      }
      // `x[k] += v` and `p->x += v` are element/field updates, not shared
      // scalar accumulation; require the identifier to stand alone.
      if (j >= 2 && (IsPunct(toks[j - 2], "]") || IsPunct(toks[j - 2], ".") ||
                     IsPunct(toks[j - 2], "->"))) {
        continue;
      }
      Report(f, lhs->line, "float-accum-in-parallel",
             "accumulation into shared float '" + lhs->text +
                 "' inside a ParallelFor body sums in completion order "
                 "(nondeterministic rounding, likely racy); keep "
                 "per-chunk partials and reduce in index order");
    }
    i = end;
  }
}

}  // namespace

std::set<std::string> UnorderedNames(const std::vector<const Token*>& toks) {
  std::set<std::string> names;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], "unordered_map") &&
        !IsIdent(toks[i], "unordered_set")) {
      continue;
    }
    size_t j = i + 1;
    if (j < toks.size() && IsPunct(toks[j], "<")) {
      j = SkipTemplateArgs(toks, j);
    }
    while (j < toks.size() &&
           (IsPunct(toks[j], ">") || IsPunct(toks[j], ">>") ||
            IsPunct(toks[j], "&") || IsPunct(toks[j], "*") ||
            IsIdent(toks[j], "const"))) {
      ++j;
    }
    if (j < toks.size() && toks[j]->kind == TokKind::kIdent) {
      names.insert(toks[j]->text);
    }
  }
  return names;
}

void RunFileRules(const SourceFile& f) {
  const std::vector<const Token*> toks = CodeTokens(f);
  CheckIncludeGuard(f);
  CheckConcurrencyPrimitives(f, toks);
  CheckBatchPlane(f, toks);
  CheckAssert(f, toks);
  CheckDeserializationValidates(f, toks);
  CheckTimerUse(f, toks);
  CheckUnorderedIteration(f, toks);
  CheckRawRng(f, toks);
  CheckSimdIsolation(f, toks);
  CheckThreadIdInStats(f, toks);
  CheckFloatAccumInParallel(f, toks);
}

void CheckMetricNameRegistry(const std::vector<SourceFile>& files) {
  const SourceFile* registry = nullptr;
  for (const SourceFile& f : files) {
    if (f.rel == "src/common/telemetry_names.h") registry = &f;
  }
  if (registry == nullptr) return;
  // Registered constants: `... char kName[] = "..."`. Registered builder
  // functions: `std::string Name(...)` declared in the registry header.
  std::set<std::string> constants;
  std::set<std::string> builders;
  const std::vector<const Token*> reg = CodeTokens(*registry);
  for (size_t i = 0; i + 2 < reg.size(); ++i) {
    if (IsIdent(reg[i], "char") && reg[i + 1]->kind == TokKind::kIdent &&
        IsPunct(reg[i + 2], "[")) {
      constants.insert(reg[i + 1]->text);
    }
    if (IsStdQualified(reg, i, "string") && i + 4 < reg.size() &&
        reg[i + 3]->kind == TokKind::kIdent && IsPunct(reg[i + 4], "(")) {
      builders.insert(reg[i + 3]->text);
    }
  }
  for (const SourceFile& f : files) {
    if (!f.InDir("src/") && !f.InDir("bench/")) continue;
    if (f.rel == "src/common/telemetry.h" ||
        f.rel == "src/common/telemetry.cc" ||
        f.rel == "src/common/telemetry_names.h") {
      continue;
    }
    const std::vector<const Token*> toks = CodeTokens(f);
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!(IsIdent(toks[i], "GetCounter") || IsIdent(toks[i], "GetGauge") ||
            IsIdent(toks[i], "GetHistogram")) ||
          !IsPunct(toks[i + 1], "(")) {
        continue;
      }
      // Skip the declarations themselves (`Counter& GetCounter(...)`):
      // a declaration's first argument token is a type name followed by
      // more idents, which the checks below already accept — but a
      // `const` right after the paren is a sure declaration marker.
      const size_t arg = i + 2;
      if (toks[arg]->kind == TokKind::kString) {
        Report(f, toks[arg]->line, "metric-name-registry",
               "instrument name is a raw string literal; use a constant "
               "from src/common/telemetry_names.h so typos fail lint "
               "instead of forking the series");
        continue;
      }
      // Resolve a possibly qualified identifier chain to its last name.
      size_t j = arg;
      while (j + 2 < toks.size() && toks[j]->kind == TokKind::kIdent &&
             IsPunct(toks[j + 1], "::")) {
        j += 2;
      }
      if (toks[j]->kind != TokKind::kIdent) continue;
      const std::string& name = toks[j]->text;
      if (name.size() >= 2 && name[0] == 'k' &&
          std::isupper(static_cast<unsigned char>(name[1])) &&
          constants.count(name) == 0 && builders.count(name) == 0) {
        Report(f, toks[j]->line, "metric-name-registry",
               "'" + name +
                   "' is not declared in src/common/telemetry_names.h; "
                   "add it to the registry (or fix the typo)");
      }
    }
  }
}

}  // namespace gnndm_lint
