// File model shared by every gnndm_lint pass: the lexed token stream,
// the preprocessor mask over its code tokens, resolved includes, the
// findings registry, and the justification-required suppression grammar.
#ifndef GNNDM_TOOLS_LINT_SOURCE_FILE_H_
#define GNNDM_TOOLS_LINT_SOURCE_FILE_H_

#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.h"

namespace gnndm_lint {

/// One #include directive. `resolved` is the repo-relative path of the
/// named project header (empty for system/external includes).
struct IncludeDirective {
  size_t line = 0;    // 1-based
  std::string path;   // text between the delimiters, verbatim
  std::string resolved;
};

struct SourceFile {
  std::string rel;                  // path relative to repo root
  std::vector<std::string> lines;   // raw source lines
  std::vector<Token> tokens;        // comment tokens included
  std::vector<IncludeDirective> includes;
  // Parallel to CodeTokens(*this): the token sits on a preprocessor line
  // (backslash continuations included), which no code pattern matches.
  std::vector<bool> in_pp;
  std::string module;               // src/<m>/ -> m; tools/bench/tests/...
  bool is_header = false;
  bool is_source = false;

  bool InDir(const std::string& prefix) const {
    return rel.rfind(prefix, 0) == 0;
  }
};

struct Finding {
  std::string file;
  size_t line;  // 0 = whole-file
  std::string rule;
  std::string message;
  // Interprocedural findings carry the call/effect chain from the
  // checked root to the offending site, outermost first.
  std::vector<std::string> chain;
};

struct Suppression {
  size_t line;
  std::string rule;
  bool used = false;
};

// Findings registry (process-global: the tool is single-threaded and
// analyzes one tree at a time).
void Report(const std::string& rel, size_t line, const std::string& rule,
            const std::string& message);
void Report(const SourceFile& f, size_t line, const std::string& rule,
            const std::string& message);
void ReportChain(const std::string& rel, size_t line, const std::string& rule,
                 const std::string& message,
                 const std::vector<std::string>& chain);
std::vector<Finding>& Violations();
void ClearViolations();
void SortFindings();
void PrintFindings(std::FILE* stream);

const std::set<std::string>& KnownRules();

/// Parses every suppression comment in `f`. Malformed ones (unknown rule,
/// missing justification) are reported immediately.
std::vector<Suppression> CollectSuppressions(const SourceFile& f);

/// Apply suppressions globally (repo passes report into the including
/// file, so a suppression on the offending line covers them too), then
/// flag the ones nothing needed.
void ApplySuppressions(std::map<std::string, std::vector<Suppression>>& sups);

/// Code tokens only (comments dropped), with an index back into them.
std::vector<const Token*> CodeTokens(const SourceFile& f);

/// 1-based line -> is part of a preprocessor directive (with backslash
/// continuations folded in).
std::vector<bool> PreprocessorLines(const std::vector<std::string>& lines);

/// Module owning a repo-relative path: src/<m>/... -> m, otherwise the
/// top-level directory (tools, bench, tests, examples).
std::string ModuleOf(const std::string& rel);

/// GNNDM_<PATH>_H_ with the leading src/ stripped, matching the existing
/// style: src/common/status.h -> GNNDM_COMMON_STATUS_H_.
std::string ExpectedGuard(const std::string& rel);

SourceFile LoadFile(const std::filesystem::path& path,
                    const std::filesystem::path& root,
                    const std::string& rel_override = "");

}  // namespace gnndm_lint

#endif  // GNNDM_TOOLS_LINT_SOURCE_FILE_H_
