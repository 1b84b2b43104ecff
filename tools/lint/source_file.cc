#include "lint/source_file.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace gnndm_lint {

namespace fs = std::filesystem;

namespace {
std::vector<Finding> g_violations;
}  // namespace

void Report(const std::string& rel, size_t line, const std::string& rule,
            const std::string& message) {
  g_violations.push_back({rel, line, rule, message, {}});
}

void Report(const SourceFile& f, size_t line, const std::string& rule,
            const std::string& message) {
  Report(f.rel, line, rule, message);
}

void ReportChain(const std::string& rel, size_t line, const std::string& rule,
                 const std::string& message,
                 const std::vector<std::string>& chain) {
  g_violations.push_back({rel, line, rule, message, chain});
}

std::vector<Finding>& Violations() { return g_violations; }

void ClearViolations() { g_violations.clear(); }

const std::set<std::string>& KnownRules() {
  static const std::set<std::string> kRules = {
      "include-guard",       "raw-lock",
      "raw-thread",          "batch-plane",
      "assert-in-cc",        "deserialize-validate",
      "raw-timer",           "unordered-iteration",
      "raw-rng",             "thread-id-in-stats",
      "float-accum-in-parallel", "layering",
      "hot-path-alloc",      "simd-isolation",
      "metric-name-registry", "parallel-context",
  };
  return kRules;
}

std::vector<Suppression> CollectSuppressions(const SourceFile& f) {
  std::vector<Suppression> out;
  for (const Token& tok : f.tokens) {
    if (tok.kind != TokKind::kComment) continue;
    const std::string& text = tok.text;
    const size_t at = text.find("gnndm-lint:");
    if (at == std::string::npos) continue;
    const size_t sup = text.find("suppress", at);
    const size_t open = text.find('(', at);
    const size_t close = text.find(')', at);
    if (sup == std::string::npos || open == std::string::npos ||
        close == std::string::npos || close < open) {
      Report(f, tok.line, "bad-suppression",
             "malformed suppression; expected 'gnndm-lint: "
             "suppress(<rule-id>): <justification>'");
      continue;
    }
    const std::string rule = Trim(text.substr(open + 1, close - open - 1));
    if (KnownRules().count(rule) == 0) {
      Report(f, tok.line, "bad-suppression",
             "suppression names unknown rule '" + rule + "'");
      continue;
    }
    const size_t colon = text.find(':', close);
    const std::string just =
        colon == std::string::npos ? "" : Trim(text.substr(colon + 1));
    if (just.empty()) {
      Report(f, tok.line, "bad-suppression",
             "suppression of '" + rule +
                 "' carries no justification; write 'gnndm-lint: "
                 "suppress(" + rule + "): <why this is safe>'");
      continue;
    }
    out.push_back({tok.line, rule, false});
  }
  return out;
}

void ApplySuppressions(
    std::map<std::string, std::vector<Suppression>>& sups) {
  std::vector<Finding> kept;
  for (Finding& v : g_violations) {
    bool suppressed = false;
    auto it = sups.find(v.file);
    if (it != sups.end()) {
      for (Suppression& s : it->second) {
        if (s.rule == v.rule &&
            (s.line == v.line || s.line + 1 == v.line)) {
          s.used = true;
          suppressed = true;
        }
      }
    }
    if (!suppressed) kept.push_back(v);
  }
  g_violations = std::move(kept);
  for (auto& [rel, list] : sups) {
    for (const Suppression& s : list) {
      if (!s.used) {
        Report(rel, s.line, "unused-suppression",
               "suppression of '" + s.rule +
                   "' matches no finding on this or the next line; "
                   "delete it or move it to the offending line");
      }
    }
  }
}

void SortFindings() {
  std::sort(g_violations.begin(), g_violations.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
}

void PrintFindings(std::FILE* stream) {
  for (const auto& v : g_violations) {
    if (v.line == 0) {
      std::fprintf(stream, "%s: [%s] %s\n", v.file.c_str(), v.rule.c_str(),
                   v.message.c_str());
    } else {
      std::fprintf(stream, "%s:%zu: [%s] %s\n", v.file.c_str(), v.line,
                   v.rule.c_str(), v.message.c_str());
    }
    for (const std::string& hop : v.chain) {
      std::fprintf(stream, "    via %s\n", hop.c_str());
    }
  }
}

std::vector<const Token*> CodeTokens(const SourceFile& f) {
  std::vector<const Token*> out;
  out.reserve(f.tokens.size());
  for (const Token& t : f.tokens) {
    if (t.kind != TokKind::kComment) out.push_back(&t);
  }
  return out;
}

std::vector<bool> PreprocessorLines(const std::vector<std::string>& lines) {
  std::vector<bool> pp(lines.size() + 2, false);
  bool cont = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    bool is_pp = cont;
    if (!is_pp) {
      const std::string t = Trim(lines[i]);
      is_pp = !t.empty() && t[0] == '#';
    }
    pp[i + 1] = is_pp;
    const size_t e = lines[i].find_last_not_of(" \t\r");
    cont = is_pp && e != std::string::npos && lines[i][e] == '\\';
  }
  return pp;
}

std::string ModuleOf(const std::string& rel) {
  const size_t slash = rel.find('/');
  if (slash == std::string::npos) return rel;
  const std::string top = rel.substr(0, slash);
  if (top != "src") return top;
  const size_t s2 = rel.find('/', slash + 1);
  if (s2 == std::string::npos) return "src";
  return rel.substr(slash + 1, s2 - slash - 1);
}

std::string ExpectedGuard(const std::string& rel) {
  std::string trimmed = StartsWith(rel, "src/") ? rel.substr(4) : rel;
  std::string guard = "GNNDM_";
  for (char c : trimmed) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      guard += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    } else {
      guard += '_';
    }
  }
  guard += '_';
  return guard;
}

namespace {

void CollectIncludes(SourceFile& f, const fs::path& root) {
  for (size_t ln = 0; ln < f.lines.size(); ++ln) {
    const std::string t = Trim(f.lines[ln]);
    if (!StartsWith(t, "#include")) continue;
    const size_t q = t.find_first_of("\"<", 8);
    if (q == std::string::npos) continue;
    const char close = t[q] == '<' ? '>' : '"';
    const size_t e = t.find(close, q + 1);
    if (e == std::string::npos) continue;
    IncludeDirective inc;
    inc.line = ln + 1;
    inc.path = t.substr(q + 1, e - q - 1);
    if (t[q] == '"') {
      // Quoted paths are rooted at src/ (the tree's single include dir),
      // with repo-root and includer-relative fallbacks.
      if (fs::exists(root / "src" / inc.path)) {
        inc.resolved = "src/" + inc.path;
      } else if (fs::exists(root / inc.path)) {
        inc.resolved = inc.path;
      } else {
        const fs::path rel_dir = fs::path(f.rel).parent_path();
        if (fs::exists(root / rel_dir / inc.path)) {
          inc.resolved = (rel_dir / inc.path).generic_string();
        }
      }
    }
    f.includes.push_back(inc);
  }
}

}  // namespace

SourceFile LoadFile(const fs::path& path, const fs::path& root,
                    const std::string& rel_override) {
  SourceFile f;
  f.rel = rel_override.empty()
              ? fs::relative(path, root).generic_string()
              : rel_override;
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = buffer.str();
  {
    std::string line;
    std::istringstream stream(contents);
    while (std::getline(stream, line)) f.lines.push_back(line);
  }
  f.tokens = Lex(contents);
  f.is_header = path.extension() == ".h";
  f.is_source = path.extension() == ".cc";
  f.module = ModuleOf(f.rel);
  CollectIncludes(f, root);
  const std::vector<bool> pp = PreprocessorLines(f.lines);
  for (const Token& t : f.tokens) {
    if (t.kind == TokKind::kComment) continue;
    f.in_pp.push_back(t.line < pp.size() && pp[t.line]);
  }
  return f;
}

}  // namespace gnndm_lint
