#include "lint/callgraph.h"

#include <algorithm>
#include <set>
#include <utility>

namespace gnndm_lint {

namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);

bool IsKeyword(const std::string& s) {
  static const std::set<std::string> kSet = {
      "alignas",      "alignof",  "asm",       "auto",       "bool",
      "break",        "case",     "catch",     "char",       "class",
      "const",        "constexpr","const_cast","continue",   "decltype",
      "default",      "delete",   "do",        "double",     "dynamic_cast",
      "else",         "enum",     "explicit",  "extern",     "false",
      "final",        "float",    "for",       "friend",     "goto",
      "if",           "inline",   "int",       "long",       "mutable",
      "namespace",    "new",      "noexcept",  "nullptr",    "operator",
      "override",     "private",  "protected", "public",     "register",
      "reinterpret_cast", "return", "short",   "signed",     "sizeof",
      "static",       "static_assert", "static_cast", "struct", "switch",
      "template",     "this",     "thread_local", "throw",   "true",
      "try",          "typedef",  "typeid",    "typename",   "union",
      "unsigned",     "using",    "virtual",   "void",       "volatile",
      "while"};
  return kSet.count(s) > 0;
}

// Identifiers that start a statement/expression rather than naming the
// type of a declarator — `return Foo(x)` is a call, `Tensor Foo(x)` is
// a declaration.
bool IsStatementKeyword(const std::string& s) {
  static const std::set<std::string> kSet = {
      "return", "throw",  "new",    "delete", "else",   "do",
      "case",   "goto",   "co_return", "co_yield", "co_await"};
  return kSet.count(s) > 0;
}

bool IsBuiltinType(const std::string& s) {
  static const std::set<std::string> kSet = {
      "void",     "bool",     "char",     "int",      "long",    "short",
      "float",    "double",   "unsigned", "signed",   "auto",    "size_t",
      "ssize_t",  "int8_t",   "int16_t",  "int32_t",  "int64_t", "uint8_t",
      "uint16_t", "uint32_t", "uint64_t", "uintptr_t","intptr_t",
      "ptrdiff_t"};
  return kSet.count(s) > 0;
}

// ALL_CAPS_WITH_DIGITS — macro naming convention.
bool IsMacroLike(const std::string& s) {
  if (s.size() < 2) return false;
  bool has_upper = false;
  for (char c : s) {
    if (c >= 'a' && c <= 'z') return false;
    if (c >= 'A' && c <= 'Z') has_upper = true;
  }
  return has_upper;
}

// Unqualified calls assumed external (libc and std names the codebase
// uses without the std:: prefix).
bool IsKnownExternal(const std::string& s) {
  // Compiler builtins and x86 SIMD intrinsics (reserved identifiers),
  // and NEON intrinsics (vaddq_f32, vreinterpretq_u32_f32, ...).
  if (s.size() > 2 && s[0] == '_' && (s[1] == '_' || s[1] == 'm')) {
    return true;
  }
  if (s[0] == 'v' && s.find("q_") != std::string::npos) return true;
  static const std::set<std::string> kSet = {
      "memcpy",   "memmove",  "memset",   "memcmp",  "strlen",  "strcmp",
      "strncmp",  "snprintf", "sprintf",  "sscanf",  "printf",  "fprintf",
      "vsnprintf","fopen",    "fclose",   "fread",   "fwrite",  "fseek",
      "ftell",    "fflush",   "fgets",    "fputs",   "remove",  "rename",
      "getenv",   "setenv",   "abort",    "exit",    "atexit",  "malloc",
      "calloc",   "realloc",  "free",     "assert",  "sqrt",    "sqrtf",
      "exp",      "expf",     "log",      "logf",    "log2",    "log10",
      "pow",      "powf",     "fabs",     "fabsf",   "floor",   "floorf",
      "ceil",     "ceilf",    "round",    "roundf",  "lround",  "trunc",
      "fmod",     "fmin",     "fmax",     "fma",     "fmaf",    "isnan",
      "isinf",    "isfinite", "atoi",     "atol",    "strtol",  "strtoul",
      "strtoull", "strtof",   "strtod",   "labs",    "abs",     "toupper",
      "tolower",  "isdigit",  "isalpha",  "isspace", "min",     "max",
      "swap",     "move",     "forward",  "get",     "make_pair",
      "make_tuple", "tie",    "to_string","stoi",    "stol",    "stoul",
      "stod",     "stof",     "rand",     "srand",   "time",    "clock",
      "main",     "now",
      // POSIX (signal-safe paths in the flight recorder).
      "open",     "close",    "read",     "write",   "fsync",   "raise",
      "sigaction","sigemptyset", "getline",
      // gtest fixture/base API used unqualified inside tests.
      "GetParam", "TempDir",  "SetUp",    "TearDown"};
  return kSet.count(s) > 0;
}

// ---------------------------------------------------------------------------
// Token-walk helpers
// ---------------------------------------------------------------------------

// toks[i] == ",": if the comma separates declarators of one statement
// (`Tensor x(4, 3), y(2, 3)`), the index of the statement's type-head
// ident; kNpos when it is an argument/operand comma instead.
size_t DeclaratorTypeBack(const std::vector<const Token*>& toks, size_t i);

// toks[i] == "]": index of the matching "[".
size_t MatchBracketBack(const std::vector<const Token*>& toks, size_t i) {
  long depth = 1;
  while (i > 0) {
    --i;
    if (IsPunct(toks[i], "]")) ++depth;
    if (IsPunct(toks[i], "[")) {
      if (--depth == 0) return i;
    }
  }
  return kNpos;
}

// toks[i] == ">": index of the matching "<" (">>" closes two levels).
size_t MatchAngleBack(const std::vector<const Token*>& toks, size_t i) {
  long depth = 0;
  for (size_t k = i + 1; k-- > 0;) {
    const Token* t = toks[k];
    if (t->kind != TokKind::kPunct) continue;
    if (t->text == ">") ++depth;
    if (t->text == ">>") depth += 2;
    if (t->text == "<") {
      if (--depth == 0) return k;
    }
    if (k == 0) break;
  }
  return kNpos;
}

size_t DeclaratorTypeBack(const std::vector<const Token*>& toks, size_t i) {
  long d = 0;
  while (i-- > 0) {
    const Token* t = toks[i];
    if (t->kind == TokKind::kPunct) {
      const std::string& p = t->text;
      if (p == ")" || p == "]" || p == "}") {
        ++d;
      } else if (p == "(" || p == "[" || p == "{") {
        if (d == 0) return kNpos;  // inside an argument list: not a decl
        --d;
      } else if (d == 0 && p == ";") {
        return kNpos;
      }
      continue;
    }
    if (d != 0 || t->kind != TokKind::kIdent) continue;
    if (IsKeyword(t->text)) return kNpos;
    // A preceding declarator's name: the type head sits right before it.
    if (i > 0 && toks[i - 1]->kind == TokKind::kIdent &&
        !IsKeyword(toks[i - 1]->text)) {
      return i - 1;
    }
    if (i > 0 && IsPunct(toks[i - 1], ">")) {
      const size_t lt = MatchAngleBack(toks, i - 1);
      if (lt != kNpos && lt > 0 && toks[lt - 1]->kind == TokKind::kIdent) {
        return lt - 1;
      }
      return kNpos;
    }
    // `*` / `&` / an earlier declarator comma: keep walking left.
  }
  return kNpos;
}

// Qualifier chain ending just before toks[name_idx]: for
// `a::b::Name` returns {"a","b"}.
std::vector<std::string> QualChainBack(const std::vector<const Token*>& toks,
                                       size_t name_idx) {
  std::vector<std::string> quals;
  size_t k = name_idx;
  while (k >= 2 && IsPunct(toks[k - 1], "::") &&
         toks[k - 2]->kind == TokKind::kIdent) {
    quals.insert(quals.begin(), toks[k - 2]->text);
    k -= 2;
  }
  return quals;
}

// True if the declaration containing toks[i] is static or thread_local:
// scan back to the statement boundary (bounded window).
bool StaticDeclBack(const std::vector<const Token*>& toks, size_t i) {
  size_t lo = i > 48 ? i - 48 : 0;
  while (i > lo) {
    --i;
    const Token* t = toks[i];
    if (t->kind == TokKind::kPunct &&
        (t->text == ";" || t->text == "{" || t->text == "}")) {
      return false;
    }
    if (IsIdent(t, "static") || IsIdent(t, "thread_local")) return true;
  }
  return false;
}

// `Type name` declarator match starting at toks[i] (the first token of
// the type). Returns the declared name and the type's simple name
// (unique_ptr/shared_ptr unwrapped to the pointee). Over-approximates:
// `a * b;` matches too — harmless, the bogus type resolves to nothing.
bool TryVarDecl(const std::vector<const Token*>& toks, size_t i,
                std::string* type, std::string* name) {
  if (toks[i]->kind != TokKind::kIdent) return false;
  if (IsKeyword(toks[i]->text) && !IsBuiltinType(toks[i]->text)) return false;
  size_t j = i;
  while (j + 2 < toks.size() && IsPunct(toks[j + 1], "::") &&
         toks[j + 2]->kind == TokKind::kIdent) {
    j += 2;
  }
  *type = toks[j]->text;
  size_t k = j + 1;
  if (k < toks.size() && IsPunct(toks[k], "<")) {
    if (*type == "unique_ptr" || *type == "shared_ptr") {
      // Pointee's simple name: last ident of the leading chain inside <>.
      size_t m = k + 1;
      while (m + 2 < toks.size() && toks[m]->kind == TokKind::kIdent &&
             IsPunct(toks[m + 1], "::") &&
             toks[m + 2]->kind == TokKind::kIdent) {
        m += 2;
      }
      if (m < toks.size() && toks[m]->kind == TokKind::kIdent) {
        *type = toks[m]->text;
      }
    }
    k = SkipTemplateArgs(toks, k);
  }
  while (k < toks.size() &&
         (IsPunct(toks[k], "*") || IsPunct(toks[k], "&") ||
          IsPunct(toks[k], "&&") || IsIdent(toks[k], "const"))) {
    ++k;
  }
  if (k + 1 >= toks.size()) return false;
  if (toks[k]->kind != TokKind::kIdent || IsKeyword(toks[k]->text)) {
    return false;
  }
  const Token* nxt = toks[k + 1];
  if (nxt->kind != TokKind::kPunct) return false;
  if (nxt->text != ";" && nxt->text != "=" && nxt->text != "{" &&
      nxt->text != ",") {
    return false;
  }
  *name = toks[k]->text;
  return true;
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

struct ClassInfo {
  std::vector<std::string> bases;
};

struct Builder {
  CallGraph g;
  const std::vector<SourceFile>* files = nullptr;
  std::vector<std::vector<const Token*>> toks;  // per file

  // Per-function side tables (parallel to g.fns).
  std::vector<std::map<std::string, size_t>> lambda_vars;
  std::vector<std::set<std::string>> callable_params;
  std::vector<std::set<std::string>> param_names;
  std::vector<std::map<std::string, std::string>> local_types;
  std::vector<std::pair<size_t, size_t>> param_range;
  std::vector<std::vector<std::string>> decl_quals;

  std::map<std::string, ClassInfo> classes;  // simple-name keyed
  std::map<std::string, std::map<std::string, std::string>> member_type;
  std::map<std::string, std::vector<std::string>> derived;  // base -> derived
  std::set<std::string> macro_names;  // repo #define names

  // Indices built between the passes.
  std::map<std::string, std::map<std::string, std::vector<size_t>>> methods;
  std::map<std::string, std::vector<size_t>> free_fns;
  std::map<std::string, std::vector<size_t>> methods_by_name;
  std::map<std::string, std::set<std::string>> hier_memo;

  size_t AddFn(FunctionInfo fn) {
    g.fns.push_back(std::move(fn));
    lambda_vars.emplace_back();
    callable_params.emplace_back();
    param_names.emplace_back();
    local_types.emplace_back();
    param_range.emplace_back(0, 0);
    decl_quals.emplace_back();
    return g.fns.size() - 1;
  }

  // Base + derived transitive closure of a class (itself included):
  // covers inherited definitions upward and virtual overrides downward.
  const std::set<std::string>& Hierarchy(const std::string& cls) {
    auto it = hier_memo.find(cls);
    if (it != hier_memo.end()) return it->second;
    std::set<std::string>& out = hier_memo[cls];
    std::vector<std::string> work = {cls};
    std::set<std::string> up_seen;
    while (!work.empty()) {  // upward
      std::string c = work.back();
      work.pop_back();
      if (!up_seen.insert(c).second) continue;
      out.insert(c);
      auto ci = classes.find(c);
      if (ci != classes.end()) {
        for (const std::string& b : ci->second.bases) work.push_back(b);
      }
    }
    std::set<std::string> down_seen;
    work.assign(1, cls);
    while (!work.empty()) {  // downward
      std::string c = work.back();
      work.pop_back();
      if (!down_seen.insert(c).second) continue;
      out.insert(c);
      auto di = derived.find(c);
      if (di != derived.end()) {
        for (const std::string& d : di->second) work.push_back(d);
      }
    }
    return out;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Public helpers
// ---------------------------------------------------------------------------

std::string EffectNames(uint8_t mask) {
  static const std::pair<uint8_t, const char*> kNames[] = {
      {kEffAllocates, "allocates"}, {kEffLocks, "locks"},
      {kEffBlocks, "blocks"},       {kEffIo, "io"},
      {kEffRawRng, "raw-rng"}};
  std::string out;
  for (const auto& [bit, nm] : kNames) {
    if ((mask & bit) == 0) continue;
    if (!out.empty()) out += "+";
    out += nm;
  }
  return out.empty() ? "-" : out;
}

bool IsBoundaryFile(const std::string& rel) {
  return StartsWith(rel, "src/common/parallel_for.") ||
         StartsWith(rel, "src/common/thread_pool.") ||
         StartsWith(rel, "src/common/flight_recorder.") ||
         StartsWith(rel, "src/common/lock_order.");
}

bool IsInfraFile(const std::string& rel) {
  return StartsWith(rel, "src/common/");
}

// ---------------------------------------------------------------------------
// Pass 1: definitions — functions, lambdas, classes, members, macros
// ---------------------------------------------------------------------------

namespace {

struct Frame {
  char kind;         // as in ScanScopes
  long paren = 0;
  size_t fn = kNoFn;      // for 'f'/'l'
  std::string name;       // for 'n'/'t'
};

void ExtractFile(Builder& b, size_t file_idx) {
  const SourceFile& f = (*b.files)[file_idx];
  const std::vector<const Token*>& toks = b.toks[file_idx];

  std::set<size_t> hot_lines;
  for (const Token& t : f.tokens) {
    if (t.kind == TokKind::kComment &&
        t.text.find("gnndm-hot") != std::string::npos) {
      hot_lines.insert(t.line);
    }
  }
  const bool in_src = f.InDir("src/");
  bool file_has_thread = false;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (IsStdQualified(toks, i, "thread")) file_has_thread = true;
  }

  std::vector<Frame> stack;
  std::vector<char> paren_kinds;
  std::vector<std::string> paren_calls;   // callee name owning each '('
  std::vector<size_t> paren_lambda_intro; // '[' index for 'l' parens
  long paren = 0;
  char pending_ctrl = 0;
  char closed_header = 0;
  size_t last_lambda_intro = kNpos;
  bool pending_type = false;
  bool pending_ns = false;
  std::string pending_type_name;
  size_t pending_type_tok = kNpos;
  std::string pending_ns_name;
  size_t decl_start_line = 1;
  size_t decl_start_tok = 0;
  bool decl_start_pending = true;

  auto at_decl_scope = [&]() {
    for (const Frame& fr : stack) {
      if (fr.kind != 'n' && fr.kind != 't') return false;
    }
    return true;
  };
  auto loop_count = [&]() -> uint32_t {
    uint32_t n = 0;
    for (const Frame& fr : stack) {
      if (fr.kind == 'o' || fr.kind == 'v') ++n;
    }
    return n;
  };
  std::vector<uint32_t>& depth_arr = b.g.loop_depth[file_idx];
  depth_arr.assign(toks.size(), 0);
  auto enclosing_fn = [&]() -> size_t {
    for (size_t k = stack.size(); k-- > 0;) {
      if (stack[k].fn != kNoFn) return stack[k].fn;
    }
    return kNoFn;
  };
  auto enclosing_class = [&]() -> std::string {
    for (size_t k = stack.size(); k-- > 0;) {
      if (stack[k].kind == 't') return stack[k].name;
    }
    return "";
  };
  auto scope_qual = [&]() {
    std::string q;
    for (const Frame& fr : stack) {
      if ((fr.kind == 'n' || fr.kind == 't') && !fr.name.empty()) {
        if (!q.empty()) q += "::";
        q += fr.name;
      }
    }
    return q;
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token* t = toks[i];
    depth_arr[i] = loop_count();
    if (i < f.tok_flags.size() && (f.tok_flags[i] & kPp) != 0) {
      // Collect #define names; directives don't drive scope structure.
      if (t->kind == TokKind::kIdent && t->text == "define" && i > 0 &&
          IsPunct(toks[i - 1], "#") && i + 1 < toks.size() &&
          toks[i + 1]->kind == TokKind::kIdent) {
        b.macro_names.insert(toks[i + 1]->text);
      }
      continue;
    }

    if (decl_start_pending) {
      decl_start_line = t->line;
      decl_start_tok = i;
      decl_start_pending = false;
    }

    if (t->kind == TokKind::kIdent) {
      const std::string& s = t->text;
      if (s == "template" && i + 1 < toks.size() &&
          IsPunct(toks[i + 1], "<")) {
        // Skip the parameter list so `template <class T>` can't leak a
        // pending_type into the next brace.
        i = SkipTemplateArgs(toks, i + 1) - 1;
        continue;
      }
      if (s == "namespace") {
        pending_ns = true;
        pending_ns_name.clear();
      } else if (s == "class" || s == "struct" || s == "union" ||
                 s == "enum") {
        pending_type = true;
        pending_type_name.clear();
        pending_type_tok = kNpos;
      } else if (pending_ns && !IsKeyword(s)) {
        if (!pending_ns_name.empty()) pending_ns_name += "::";
        pending_ns_name += s;
      } else if (pending_type && pending_type_name.empty() &&
                 !IsKeyword(s) && !IsMacroLike(s) &&
                 !(i > 0 && IsPunct(toks[i - 1], "["))) {
        // The `[` guard skips `class [[nodiscard]] Status`-style
        // attributes; the macro guard skips attribute macros
        // (`class GNNDM_SCOPED_CAPABILITY MutexLock`). Neither ident is
        // the class name.
        pending_type_name = s;
        pending_type_tok = i;
      } else if (s == "for" || s == "while") {
        pending_ctrl = 'o';
      } else if (s == "if" || s == "switch" || s == "catch") {
        pending_ctrl = 'c';
      } else if (s == "do") {
        if (i + 1 < toks.size() && IsPunct(toks[i + 1], "{")) {
          closed_header = 'o';
        } else {
          stack.push_back({'v', paren, kNoFn, ""});
        }
      } else if (!stack.empty() && stack.back().kind == 't' && paren == 0) {
        // Class-scope member declaration: record its type for receiver
        // resolution (`mu_.Lock()` needs to know mu_ is a Mutex).
        std::string ty, nm;
        if (TryVarDecl(toks, i, &ty, &nm)) {
          b.member_type[stack.back().name][nm] = ty;
        }
      }
      continue;
    }

    if (t->kind != TokKind::kPunct) continue;
    const std::string& p = t->text;

    if (p == "(") {
      char k = '.';
      std::string call;
      size_t intro = kNpos;
      if (pending_ctrl != 0) {
        k = pending_ctrl;
        pending_ctrl = 0;
      } else if (i > 0 && IsPunct(toks[i - 1], "]")) {
        k = 'l';
        intro = MatchBracketBack(toks, i - 1);
      } else if (i > 0 && toks[i - 1]->kind == TokKind::kIdent &&
                 !IsKeyword(toks[i - 1]->text)) {
        call = toks[i - 1]->text;
      }
      paren_kinds.push_back(k);
      paren_calls.push_back(call);
      paren_lambda_intro.push_back(intro);
      ++paren;
    } else if (p == ")") {
      --paren;
      closed_header = paren_kinds.empty() ? '.' : paren_kinds.back();
      if (!paren_kinds.empty()) {
        if (closed_header == 'l') {
          last_lambda_intro = paren_lambda_intro.back();
        }
        paren_kinds.pop_back();
        paren_calls.pop_back();
        paren_lambda_intro.pop_back();
      }
      if (closed_header == 'o' && i + 1 < toks.size() &&
          !IsPunct(toks[i + 1], "{")) {
        stack.push_back({'v', paren, kNoFn, ""});
        closed_header = 0;
      }
    } else if (p == "{") {
      char kind;
      const Token* prev = i > 0 ? toks[i - 1] : nullptr;
      if (pending_ns) {
        kind = 'n';
      } else if (pending_type) {
        kind = 't';
      } else if (prev != nullptr && IsPunct(prev, "]")) {
        kind = 'l';
        last_lambda_intro = MatchBracketBack(toks, i - 1);
      } else if (closed_header == 'o' || closed_header == 'c' ||
                 closed_header == 'l') {
        kind = closed_header;
      } else if (prev != nullptr &&
                 (IsIdent(prev, "else") || IsIdent(prev, "try"))) {
        kind = 'c';
      } else if (prev != nullptr &&
                 (IsPunct(prev, "=") || IsPunct(prev, ",") ||
                  IsPunct(prev, "(") || IsPunct(prev, "{") ||
                  IsPunct(prev, "[") || IsIdent(prev, "return"))) {
        kind = 'b';
      } else if (at_decl_scope() &&
                 (prev == nullptr || IsPunct(prev, ")") ||
                  IsPunct(prev, "}") || IsPunct(prev, ">") ||
                  IsPunct(prev, "&") || IsPunct(prev, "&&") ||
                  IsIdent(prev, "const") || IsIdent(prev, "noexcept") ||
                  IsIdent(prev, "override") || IsIdent(prev, "final") ||
                  IsIdent(prev, "try"))) {
        kind = 'f';
      } else {
        kind = 'b';
      }

      Frame fr{kind, paren, kNoFn, ""};
      if (kind == 'n') {
        fr.name = pending_ns_name;
      } else if (kind == 't') {
        fr.name = pending_type_name;
        if (!pending_type_name.empty()) {
          ClassInfo& ci = b.classes[pending_type_name];
          // Bases: ident chains after the ':' of the base-clause.
          bool in_bases = false;
          for (size_t j = pending_type_tok + 1; j < i; ++j) {
            if (IsPunct(toks[j], ":")) in_bases = true;
            if (!in_bases || toks[j]->kind != TokKind::kIdent) continue;
            const std::string& bn = toks[j]->text;
            if (IsKeyword(bn)) continue;
            // Take the last ident of a qualified chain only.
            if (j + 1 < i && IsPunct(toks[j + 1], "::")) continue;
            if (std::find(ci.bases.begin(), ci.bases.end(), bn) ==
                ci.bases.end()) {
              ci.bases.push_back(bn);
              b.derived[bn].push_back(pending_type_name);
            }
            if (j + 1 < i && IsPunct(toks[j + 1], "<")) {
              j = SkipTemplateArgs(toks, j + 1) - 1;
            }
          }
        }
      } else if (kind == 'l') {
        const size_t parent = enclosing_fn();
        FunctionInfo fn;
        fn.name = "lambda@" + std::to_string(t->line);
        fn.qual = (parent != kNoFn ? b.g.fns[parent].qual : f.rel) +
                  "::" + fn.name;
        fn.cls = parent != kNoFn ? b.g.fns[parent].cls : "";
        fn.file = file_idx;
        fn.line = t->line;
        fn.body_begin = i;
        fn.body_depth = loop_count();
        fn.parent = parent;
        fn.is_lambda = true;
        // Roots: the innermost named call this lambda is an argument of.
        for (size_t k = paren_calls.size(); k-- > 0;) {
          const std::string& c = paren_calls[k];
          if (c.empty()) continue;
          if (in_src && !IsBoundaryFile(f.rel) &&
              (c == "ParallelFor" || c == "ParallelFor2D")) {
            fn.parallel_root = true;
          } else if (in_src && !IsBoundaryFile(f.rel) && file_has_thread &&
                     (c == "emplace_back" || c == "push_back" ||
                      c == "thread")) {
            fn.producer_root = true;
          }
          break;
        }
        const size_t idx = b.AddFn(std::move(fn));
        // `auto done = [..]{..}` — later `done()` resolves here.
        const size_t intro =
            (prev != nullptr && IsPunct(prev, "]")) ? MatchBracketBack(
                toks, i - 1)
                                                    : last_lambda_intro;
        if (parent != kNoFn && intro != kNpos && intro >= 2 &&
            IsPunct(toks[intro - 1], "=") &&
            toks[intro - 2]->kind == TokKind::kIdent) {
          b.lambda_vars[parent][toks[intro - 2]->text] = idx;
        }
        fr.fn = idx;
      } else if (kind == 'f' && at_decl_scope()) {
        // Parse the declaration head: the function name is the ident
        // before the first depth-0 '(' (template args in the return
        // type skipped), qualifiers walked back over `Ident::` pairs,
        // the param list being that paren group's extent.
        FunctionInfo fn;
        fn.file = file_idx;
        fn.line = t->line;
        fn.body_begin = i;
        fn.body_depth = loop_count();
        std::vector<std::string> quals;
        size_t param_lo = 0, param_hi = 0;
        bool named = false;
        long depth = 0;
        for (size_t j = decl_start_tok; j < i && !named; ++j) {
          const Token* dt = toks[j];
          if (dt->kind == TokKind::kIdent && j + 1 < i &&
              IsPunct(toks[j + 1], "<") && dt->text != "operator") {
            j = SkipTemplateArgs(toks, j + 1) - 1;
            continue;
          }
          if (IsPunct(dt, ")")) {
            --depth;
            continue;
          }
          if (dt->kind == TokKind::kIdent && dt->text == "operator") {
            fn.is_operator = true;
          }
          if (!IsPunct(dt, "(")) continue;
          if (depth++ != 0 || j == decl_start_tok) continue;
          const Token* pv = toks[j - 1];
          if (pv->kind == TokKind::kIdent && !IsKeyword(pv->text)) {
            fn.name = pv->text;
            size_t qk = j - 1;
            if (qk > decl_start_tok && IsPunct(toks[qk - 1], "~")) {
              fn.name = "~" + fn.name;
              --qk;
            }
            quals = QualChainBack(toks, qk);
            long d2 = 1;
            size_t pe = j + 1;
            while (pe < i && d2 > 0) {
              if (IsPunct(toks[pe], "(")) ++d2;
              if (IsPunct(toks[pe], ")")) --d2;
              ++pe;
            }
            param_lo = j + 1;
            param_hi = pe > 0 ? pe - 1 : j + 1;
            named = true;
          } else if (pv->kind == TokKind::kIdent &&
                     pv->text == "operator") {
            fn.is_operator = true;
            fn.name = "operator";
            named = true;
          } else if (IsPunct(pv, ">")) {
            // Explicit specialization: `void Foo<int>(...)`.
            const size_t lt = MatchAngleBack(toks, j - 1);
            if (lt != kNpos && lt > decl_start_tok &&
                toks[lt - 1]->kind == TokKind::kIdent) {
              fn.name = toks[lt - 1]->text;
              quals = QualChainBack(toks, lt - 1);
              named = true;
            }
          } else if (pv->kind == TokKind::kPunct && j >= 2 &&
                     IsIdent(toks[j - 2], "operator")) {
            fn.is_operator = true;
            fn.name = "operator" + pv->text;
            named = true;
          }
        }
        if (fn.name.empty()) {
          fn.name = fn.is_operator
                        ? "operator?"
                        : "<anon@" + std::to_string(t->line) + ">";
        }
        fn.cls = enclosing_class();
        // `TEST_F(Fixture, Name)`-style test macros define a member of
        // the fixture class: bind the body to that class so unqualified
        // fixture-method calls (SmallConfig(), TempDir()) resolve.
        if (fn.cls.empty() && IsMacroLike(fn.name) &&
            param_lo + 2 < param_hi &&
            toks[param_lo]->kind == TokKind::kIdent &&
            IsPunct(toks[param_lo + 1], ",") &&
            toks[param_lo + 2]->kind == TokKind::kIdent) {
          fn.cls = toks[param_lo]->text;
          fn.name = toks[param_lo + 2]->text;
          quals.push_back(fn.cls);
        }
        std::string q = scope_qual();
        for (const std::string& qq : quals) {
          if (!q.empty()) q += "::";
          q += qq;
        }
        fn.qual = q.empty() ? fn.name : q + "::" + fn.name;
        for (size_t ln = decl_start_line > 0 ? decl_start_line - 1 : 0;
             ln <= t->line; ++ln) {
          if (hot_lines.count(ln) > 0) fn.hot = true;
        }
        const size_t idx = b.AddFn(std::move(fn));
        b.decl_quals[idx] = quals;
        b.param_range[idx] = {param_lo, param_hi};
        fr.fn = idx;
      }

      stack.push_back(fr);
      pending_ns = false;
      pending_type = false;
      closed_header = 0;
      decl_start_pending = true;
    } else if (p == "}") {
      if (!stack.empty()) {
        if (stack.back().fn != kNoFn) {
          b.g.fns[stack.back().fn].body_end = i + 1;
        }
        stack.pop_back();
      }
      while (!stack.empty() && stack.back().kind == 'v' &&
             paren == stack.back().paren && i + 1 < toks.size() &&
             !IsIdent(toks[i + 1], "else")) {
        stack.pop_back();
      }
      closed_header = 0;
      decl_start_pending = true;
    } else if (p == ";") {
      while (!stack.empty() && stack.back().kind == 'v' &&
             paren == stack.back().paren) {
        stack.pop_back();
      }
      pending_type = false;
      pending_ns = false;  // `using namespace x;`
      closed_header = 0;
      decl_start_pending = true;
    }
  }

  // Unbalanced safety net.
  for (FunctionInfo& fn : b.g.fns) {
    if (fn.file == file_idx && fn.body_end == 0) fn.body_end = toks.size();
  }
}

// ---------------------------------------------------------------------------
// Pass 2: parameters, locals, call-site resolution
// ---------------------------------------------------------------------------

void ParseParams(Builder& b, size_t fi) {
  const auto [lo, hi] = b.param_range[fi];
  if (lo >= hi) return;
  const std::vector<const Token*>& toks = b.toks[b.g.fns[fi].file];

  auto flush = [&](size_t s, size_t e) {
    if (s >= e) return;
    bool callable = false;
    for (size_t k = s; k < e; ++k) {
      if (toks[k]->kind != TokKind::kIdent) continue;
      if (toks[k]->text == "FunctionRef" ||
          (toks[k]->text == "function" &&
           IsPunct(toks[k + 1 < e ? k + 1 : k], "<"))) {
        callable = true;
      }
    }
    size_t stop = e;
    for (size_t k = s; k < e; ++k) {
      if (IsPunct(toks[k], "=")) {
        stop = k;
        break;
      }
    }
    size_t name_i = kNpos;
    for (size_t k = s; k < stop; ++k) {
      if (toks[k]->kind == TokKind::kIdent && !IsKeyword(toks[k]->text)) {
        name_i = k;
      }
    }
    if (name_i == kNpos) return;
    const std::string& nm = toks[name_i]->text;
    if (callable) b.callable_params[fi].insert(nm);
    b.param_names[fi].insert(nm);
    // Type simple name: last ident of the leading qualified chain.
    size_t k = s;
    while (k < stop && (toks[k]->kind != TokKind::kIdent ||
                        IsIdent(toks[k], "const") ||
                        IsIdent(toks[k], "struct") ||
                        IsIdent(toks[k], "class") ||
                        IsIdent(toks[k], "typename") ||
                        IsIdent(toks[k], "volatile"))) {
      ++k;
    }
    if (k < stop && k != name_i) {
      size_t j = k;
      while (j + 2 < stop && IsPunct(toks[j + 1], "::") &&
             toks[j + 2]->kind == TokKind::kIdent) {
        j += 2;
      }
      if (j != name_i) b.local_types[fi][nm] = toks[j]->text;
    }
  };

  long pd = 0, ad = 0;
  size_t item = lo;
  for (size_t k = lo; k < hi; ++k) {
    const Token* t = toks[k];
    if (t->kind != TokKind::kPunct) continue;
    if (t->text == "(") {
      ++pd;
    } else if (t->text == ")") {
      --pd;
    } else if (t->text == "<" && k > lo &&
               toks[k - 1]->kind == TokKind::kIdent) {
      ++ad;
    } else if (t->text == ">" && ad > 0) {
      --ad;
    } else if (t->text == ">>") {
      ad = ad >= 2 ? ad - 2 : 0;
    } else if (t->text == "," && pd == 0 && ad == 0) {
      flush(item, k);
      item = k + 1;
    }
  }
  flush(item, hi);
}

// Walk the lexical parent chain (lambdas see the encloser's bindings).
size_t LookupLambdaVar(Builder& b, size_t fi, const std::string& name) {
  for (size_t f = fi; f != kNoFn; f = b.g.fns[f].parent) {
    auto it = b.lambda_vars[f].find(name);
    if (it != b.lambda_vars[f].end()) return it->second;
  }
  return kNoFn;
}

bool IsCallableName(Builder& b, size_t fi, const std::string& name) {
  for (size_t f = fi; f != kNoFn; f = b.g.fns[f].parent) {
    if (b.callable_params[f].count(name) > 0) return true;
    auto it = b.local_types[f].find(name);
    if (it != b.local_types[f].end() &&
        (it->second == "FunctionRef" || it->second == "function")) {
      return true;
    }
  }
  return false;
}

// Type of data member `name` across `cls` and its bases.
std::string MemberTypeOf(Builder& b, const std::string& cls,
                         const std::string& name) {
  std::vector<std::string> work = {cls};
  std::set<std::string> seen;
  while (!work.empty()) {
    std::string c = work.back();
    work.pop_back();
    if (c.empty() || !seen.insert(c).second) continue;
    auto mi = b.member_type.find(c);
    if (mi != b.member_type.end()) {
      auto it = mi->second.find(name);
      if (it != mi->second.end()) return it->second;
    }
    auto ci = b.classes.find(c);
    if (ci != b.classes.end()) {
      for (const std::string& base : ci->second.bases) work.push_back(base);
    }
  }
  return "";
}

// Type of a receiver: locals/params up the lexical chain, then members
// of the enclosing class and its bases.
std::string LookupVarType(Builder& b, size_t fi, const std::string& name) {
  for (size_t f = fi; f != kNoFn; f = b.g.fns[f].parent) {
    auto it = b.local_types[f].find(name);
    if (it != b.local_types[f].end()) return it->second;
  }
  return MemberTypeOf(b, b.g.fns[fi].cls, name);
}

// Methods named `name` across the full hierarchy (bases + overrides).
std::vector<size_t> HierarchyMethods(Builder& b, const std::string& cls,
                                     const std::string& name) {
  std::vector<size_t> out;
  for (const std::string& c : b.Hierarchy(cls)) {
    auto mi = b.methods.find(c);
    if (mi == b.methods.end()) continue;
    auto ni = mi->second.find(name);
    if (ni == mi->second.end()) continue;
    out.insert(out.end(), ni->second.begin(), ni->second.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool IsExternalNamespace(const std::string& ns) {
  return ns == "std" || ns == "chrono" || ns == "this_thread" ||
         ns == "filesystem" || ns == "fs" || ns == "testing";
}

void ResolveMember(Builder& b, size_t fi, const std::string& name,
                   const std::string& receiver,
                   const std::string& receiver_ty, CallSite& cs) {
  std::string ty = receiver_ty;
  if (!ty.empty()) {
    // Pre-resolved by the caller (chained member access).
  } else if (receiver == "this") {
    ty = b.g.fns[fi].cls;
  } else if (!receiver.empty()) {
    ty = LookupVarType(b, fi, receiver);
  }
  if (!ty.empty() && b.classes.count(ty) > 0) {
    cs.callees = HierarchyMethods(b, ty, name);
    cs.kind = cs.callees.empty() ? CallKind::kExternal : CallKind::kRepo;
    return;
  }
  if (!ty.empty()) {
    cs.kind = CallKind::kExternal;  // std::vector et al.
    return;
  }
  // Unknown receiver (chained call, foreign subobject): every method
  // with this name — conservative, never drops a real edge.
  auto it = b.methods_by_name.find(name);
  if (it != b.methods_by_name.end() && !it->second.empty()) {
    cs.callees = it->second;
    cs.kind = CallKind::kRepo;
  } else {
    cs.kind = CallKind::kExternal;
  }
}

// Constructor edges for a type name (decl-style `Tensor out(shape)`,
// member initializers, `new Foo(...)`, functional casts).
void ResolveCtor(Builder& b, const std::string& ty,
                 const std::vector<std::string>& quals, CallSite& cs) {
  if (!quals.empty() && IsExternalNamespace(quals[0])) {
    cs.kind = CallKind::kExternal;
    return;
  }
  if (IsBuiltinType(ty) || IsKeyword(ty)) {
    cs.kind = CallKind::kExternal;
    return;
  }
  auto ci = b.methods.find(ty);
  if (b.classes.count(ty) > 0 || ci != b.methods.end()) {
    if (ci != b.methods.end()) {
      auto ni = ci->second.find(ty);
      if (ni != ci->second.end()) cs.callees = ni->second;
    }
    cs.kind = cs.callees.empty() ? CallKind::kExternal : CallKind::kRepo;
    return;
  }
  cs.kind = CallKind::kExternal;  // alias / template-id / foreign type
}

void ResolveQualified(Builder& b, const std::string& name,
                      const std::vector<std::string>& quals, CallSite& cs) {
  if (IsExternalNamespace(quals[0])) {
    cs.kind = CallKind::kExternal;
    return;
  }
  std::string full;
  for (const std::string& q : quals) full += q + "::";
  full += name;
  const std::string suffix = "::" + full;
  auto it = b.g.by_name.find(name);
  if (it != b.g.by_name.end()) {
    for (size_t idx : it->second) {
      const std::string& q = b.g.fns[idx].qual;
      if (q == full ||
          (q.size() > suffix.size() &&
           q.compare(q.size() - suffix.size(), suffix.size(), suffix) == 0)) {
        cs.callees.push_back(idx);
      }
    }
  }
  if (!cs.callees.empty()) {
    cs.kind = CallKind::kRepo;
  } else if (IsMacroLike(name) || b.macro_names.count(name) > 0 ||
             IsKnownExternal(name)) {
    cs.kind = CallKind::kExternal;
  } else {
    cs.kind = CallKind::kUnresolved;
  }
}

void ResolveUnqualified(Builder& b, size_t fi, const std::string& name,
                        CallSite& cs) {
  const size_t lv = LookupLambdaVar(b, fi, name);
  if (lv != kNoFn) {
    cs.callees.push_back(lv);
    cs.kind = CallKind::kRepo;
    return;
  }
  if (IsCallableName(b, fi, name)) {
    cs.kind = CallKind::kCallableParam;
    return;
  }
  if (b.classes.count(name) > 0) {  // constructor / functional cast
    ResolveCtor(b, name, {}, cs);
    return;
  }
  const std::string& cls = b.g.fns[fi].cls;
  if (!cls.empty()) {
    cs.callees = HierarchyMethods(b, cls, name);
    if (!cs.callees.empty()) {
      cs.kind = CallKind::kRepo;
      return;
    }
  }
  auto it = b.free_fns.find(name);
  if (it != b.free_fns.end() && !it->second.empty()) {
    cs.callees = it->second;  // every overload
    cs.kind = CallKind::kRepo;
    return;
  }
  if (IsBuiltinType(name) || IsMacroLike(name) ||
      b.macro_names.count(name) > 0 || IsKnownExternal(name)) {
    cs.kind = CallKind::kExternal;
    return;
  }
  if (name.back() == '_') {
    // Repo style suffixes members with `_`; invoking one directly is a
    // stored callable (function pointer / std::function member) — the
    // code that installed it owns its effects, like a callable param.
    cs.kind = CallKind::kCallableParam;
    return;
  }
  // Invoking a parameter of non-callable declared type (template-param
  // functors like `Kernel kernel`): still a callable the caller chose.
  for (size_t f = fi; f != kNoFn; f = b.g.fns[f].parent) {
    if (b.param_names[f].count(name) > 0) {
      cs.kind = CallKind::kCallableParam;
      return;
    }
  }
  cs.kind = CallKind::kUnresolved;
}

void PushSite(Builder& b, CallSite cs, bool counted, bool in_src) {
  std::sort(cs.callees.begin(), cs.callees.end());
  cs.callees.erase(std::unique(cs.callees.begin(), cs.callees.end()),
                   cs.callees.end());
  if (counted && in_src) {
    ++b.g.stats.src_call_sites;
    switch (cs.kind) {
      case CallKind::kRepo: ++b.g.stats.resolved_repo; break;
      case CallKind::kExternal: ++b.g.stats.external; break;
      case CallKind::kCallableParam: ++b.g.stats.callable_param; break;
      case CallKind::kFnRef: break;
      case CallKind::kUnresolved: ++b.g.stats.unresolved; break;
    }
  }
  const size_t caller = cs.caller;
  b.g.sites.push_back(std::move(cs));
  b.g.fns[caller].sites.push_back(b.g.sites.size() - 1);
}

void ScanRange(Builder& b, size_t fi, size_t lo, size_t hi, bool init_list,
               const std::vector<std::pair<size_t, size_t>>* skip) {
  const FunctionInfo& fn = b.g.fns[fi];
  const SourceFile& sf = (*b.files)[fn.file];
  const std::vector<const Token*>& toks = b.toks[fn.file];
  const bool in_src = sf.InDir("src/");

  for (size_t i = lo; i < hi && i < toks.size(); ++i) {
    if (skip != nullptr) {
      bool inside = false;
      for (const auto& [s, e] : *skip) {
        if (i >= s && i < e) {
          i = e - 1;
          inside = true;
          break;
        }
        if (s > i) break;
      }
      if (inside) continue;
    }
    if (i < sf.tok_flags.size() && (sf.tok_flags[i] & kPp) != 0) continue;
    const Token* t = toks[i];
    if (t->kind != TokKind::kIdent || IsKeyword(t->text)) continue;
    const Token* prev = i > 0 ? toks[i - 1] : nullptr;
    const Token* next = i + 1 < toks.size() ? toks[i + 1] : nullptr;
    if (next == nullptr) break;

    if (!IsPunct(next, "(")) {
      // Function name used as an argument: a conservative pointer edge
      // when it names exactly one free function (or `&Cls::Method`).
      if (init_list) continue;
      if (!IsPunct(next, ",") && !IsPunct(next, ")")) continue;
      CallSite cs;
      cs.caller = fi;
      cs.line = t->line;
      cs.name = t->text;
      cs.kind = CallKind::kFnRef;
      if (prev != nullptr && IsPunct(prev, "::") && i >= 3 &&
          toks[i - 2]->kind == TokKind::kIdent &&
          IsPunct(toks[i - 3], "&")) {
        cs.callees = HierarchyMethods(b, toks[i - 2]->text, t->text);
      } else if (prev != nullptr &&
                 (IsPunct(prev, "(") || IsPunct(prev, ",") ||
                  IsPunct(prev, "&"))) {
        auto it = b.free_fns.find(t->text);
        if (it != b.free_fns.end() && it->second.size() == 1) {
          cs.callees = it->second;
        }
      }
      if (!cs.callees.empty()) PushSite(b, std::move(cs), false, in_src);
      continue;
    }

    CallSite cs;
    cs.caller = fi;
    cs.line = t->line;
    cs.name = t->text;
    const uint8_t fl = i < sf.tok_flags.size() ? sf.tok_flags[i] : 0;
    const std::vector<uint32_t>& depth = b.g.loop_depth[fn.file];
    cs.in_loop = i < depth.size() && depth[i] > fn.body_depth;
    cs.in_parallel = (fl & kInParallel) != 0;
    cs.static_decl = StaticDeclBack(toks, i);

    if (init_list) {
      // Ctor-init-list: `member_(args)` constructs the member's type;
      // `Base(args)` is a base/delegating constructor call.
      std::string ty = LookupVarType(b, fi, t->text);
      if (ty.empty() && b.classes.count(t->text) > 0) ty = t->text;
      if (!ty.empty()) {
        ResolveCtor(b, ty, {}, cs);
      } else {
        cs.kind = CallKind::kExternal;
      }
      PushSite(b, std::move(cs), true, in_src);
      continue;
    }
    if (prev != nullptr && (IsPunct(prev, ".") || IsPunct(prev, "->"))) {
      cs.is_member = true;
      std::string receiver;
      std::string receiver_ty;
      if (i >= 2 && toks[i - 2]->kind == TokKind::kIdent) {
        receiver = toks[i - 2]->text;
        // One level of member chaining: in `a.b.Method()` the receiver
        // is field `b` of a's type — chase it so the call dispatches on
        // b's class instead of the every-method-with-this-name fallback.
        if (i >= 4 &&
            (IsPunct(toks[i - 3], ".") || IsPunct(toks[i - 3], "->")) &&
            toks[i - 4]->kind == TokKind::kIdent) {
          const std::string outer_ty =
              toks[i - 4]->text == "this"
                  ? b.g.fns[fi].cls
                  : LookupVarType(b, fi, toks[i - 4]->text);
          if (!outer_ty.empty()) {
            receiver_ty = MemberTypeOf(b, outer_ty, receiver);
          }
        }
      }
      ResolveMember(b, fi, t->text, receiver, receiver_ty, cs);
      PushSite(b, std::move(cs), true, in_src);
      continue;
    }
    if (prev != nullptr && prev->kind == TokKind::kIdent &&
        !IsStatementKeyword(prev->text)) {
      // `Type name(args)` declaration: a constructor call of Type.
      cs.name = prev->text;
      ResolveCtor(b, prev->text, QualChainBack(toks, i - 1), cs);
      PushSite(b, std::move(cs), true, in_src);
      continue;
    }
    if (prev != nullptr && (IsPunct(prev, ">") || IsPunct(prev, ">>"))) {
      // `std::vector<T> name(args)` declaration (`>>` when the template
      // args nest): the template-id head is the constructed type.
      const size_t lt = MatchAngleBack(toks, i - 1);
      if (lt != kNpos && lt > 0 && toks[lt - 1]->kind == TokKind::kIdent) {
        cs.name = toks[lt - 1]->text;
        ResolveCtor(b, toks[lt - 1]->text, QualChainBack(toks, lt - 1), cs);
        PushSite(b, std::move(cs), true, in_src);
        continue;
      }
    }
    if (prev != nullptr && IsPunct(prev, ",")) {
      // Later declarator of a multi-declarator statement:
      // `Tensor x(4, 3), y(2, 3)` constructs the statement's type.
      const size_t ti = DeclaratorTypeBack(toks, i - 1);
      if (ti != kNpos) {
        cs.name = toks[ti]->text;
        ResolveCtor(b, toks[ti]->text, QualChainBack(toks, ti), cs);
        PushSite(b, std::move(cs), true, in_src);
        continue;
      }
    }
    std::vector<std::string> quals = QualChainBack(toks, i);
    if (!quals.empty()) {
      ResolveQualified(b, t->text, quals, cs);
    } else {
      ResolveUnqualified(b, fi, t->text, cs);
    }
    PushSite(b, std::move(cs), true, in_src);
  }
}

void ScanFn(Builder& b, size_t fi,
            const std::vector<std::pair<size_t, size_t>>& skip) {
  const size_t bb = b.g.fns[fi].body_begin;
  const size_t be = b.g.fns[fi].body_end;
  const SourceFile& sf = (*b.files)[b.g.fns[fi].file];
  const std::vector<const Token*>& toks = b.toks[b.g.fns[fi].file];

  // Locals first: declarations precede uses within a body.
  for (size_t i = bb + 1; i + 1 < be && i < toks.size(); ++i) {
    if (i < sf.tok_flags.size() && (sf.tok_flags[i] & kPp) != 0) continue;
    bool inside = false;
    for (const auto& [s, e] : skip) {
      if (i >= s && i < e) {
        i = e - 1;
        inside = true;
        break;
      }
      if (s > i) break;
    }
    if (inside) continue;
    std::string ty, nm;
    if (toks[i]->kind == TokKind::kIdent && TryVarDecl(toks, i, &ty, &nm)) {
      b.local_types[fi].emplace(nm, ty);
    }
  }

  const auto [plo, phi] = b.param_range[fi];
  if (phi > 0 && phi < bb) ScanRange(b, fi, phi, bb, true, nullptr);
  if (be > bb + 1) ScanRange(b, fi, bb + 1, be - 1, false, &skip);
}

}  // namespace

CallGraph BuildCallGraph(const std::vector<SourceFile>& files) {
  Builder b;
  b.files = &files;
  b.toks.reserve(files.size());
  for (const SourceFile& f : files) b.toks.push_back(CodeTokens(f));
  b.g.loop_depth.resize(files.size());
  for (size_t i = 0; i < files.size(); ++i) ExtractFile(b, i);

  // Out-of-class definitions: the last declaration qualifier is the
  // class when it names one (`void AsyncBatchSource::WorkerLoop`);
  // lambdas then inherit the resolved class of their encloser.
  for (size_t i = 0; i < b.g.fns.size(); ++i) {
    FunctionInfo& fn = b.g.fns[i];
    if (!fn.is_lambda && fn.cls.empty() && !b.decl_quals[i].empty() &&
        b.classes.count(b.decl_quals[i].back()) > 0) {
      fn.cls = b.decl_quals[i].back();
    }
  }
  for (FunctionInfo& fn : b.g.fns) {
    if (fn.is_lambda && fn.parent != kNoFn) {
      fn.cls = b.g.fns[fn.parent].cls;
    }
  }

  for (size_t i = 0; i < b.g.fns.size(); ++i) {
    const FunctionInfo& fn = b.g.fns[i];
    if (fn.is_lambda) {
      ++b.g.stats.lambdas;
      continue;
    }
    ++b.g.stats.functions;
    b.g.by_name[fn.name].push_back(i);
    if (!fn.cls.empty()) {
      b.methods[fn.cls][fn.name].push_back(i);
      b.methods_by_name[fn.name].push_back(i);
    } else if (!fn.is_operator) {
      b.free_fns[fn.name].push_back(i);
    }
  }

  for (size_t i = 0; i < b.g.fns.size(); ++i) ParseParams(b, i);

  std::vector<std::vector<std::pair<size_t, size_t>>> skips(b.g.fns.size());
  for (size_t i = 0; i < b.g.fns.size(); ++i) {
    const FunctionInfo& fn = b.g.fns[i];
    if (fn.parent != kNoFn) {
      skips[fn.parent].push_back({fn.body_begin, fn.body_end});
    }
  }
  for (auto& s : skips) std::sort(s.begin(), s.end());
  for (size_t i = 0; i < b.g.fns.size(); ++i) ScanFn(b, i, skips[i]);

  // Implicit lexical edge: the encloser owns each of its lambdas'
  // effects — it either runs the lambda itself or chose the runner. The
  // site sits at the lambda's definition point, so a lambda materialized
  // inside the encloser's loop is a looped edge. Not counted in stats
  // (there is no named call token to resolve).
  for (size_t i = 0; i < b.g.fns.size(); ++i) {
    const FunctionInfo& fn = b.g.fns[i];
    if (!fn.is_lambda || fn.parent == kNoFn) continue;
    CallSite cs;
    cs.caller = fn.parent;
    cs.line = fn.line;
    cs.name = fn.name;
    cs.callees = {i};
    cs.kind = CallKind::kRepo;
    const std::vector<uint32_t>& depth = b.g.loop_depth[fn.file];
    cs.in_loop = fn.body_begin < depth.size() &&
                 depth[fn.body_begin] > b.g.fns[fn.parent].body_depth;
    const SourceFile& sf = (*b.files)[fn.file];
    cs.in_parallel = fn.body_begin < sf.tok_flags.size() &&
                     (sf.tok_flags[fn.body_begin] & kInParallel) != 0;
    // `static const auto x = []{...}();` runs once — the contract walks
    // exempt static-decl sites, and that covers the lambda edge too.
    cs.static_decl = StaticDeclBack(b.toks[fn.file], fn.body_begin);
    PushSite(b, std::move(cs), false, false);
  }

  return std::move(b.g);
}

}  // namespace gnndm_lint
