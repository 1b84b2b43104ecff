// Token lexer for gnndm_lint: C++-aware enough that comments, string
// and char literals (including raw strings), and multi-character
// operators are each one token, so no rule can be fooled by a banned
// construct quoted in prose or hidden behind creative spacing.
#ifndef GNNDM_TOOLS_LINT_LEXER_H_
#define GNNDM_TOOLS_LINT_LEXER_H_

#include <cstddef>
#include <string>
#include <vector>

namespace gnndm_lint {

enum class TokKind {
  kIdent,    // identifiers and keywords
  kNumber,   // numeric literals
  kString,   // "..." and R"(...)" (text excludes quotes)
  kChar,     // '...'
  kComment,  // // and /* */ (text excludes the delimiters)
  kPunct,    // operators and punctuation, multi-char ops combined
};

struct Token {
  TokKind kind;
  std::string text;
  size_t line;  // 1-based line of the token's first character
};

std::vector<Token> Lex(const std::string& src);

std::string Trim(const std::string& s);
bool StartsWith(const std::string& s, const std::string& prefix);

// ---------------------------------------------------------------------------
// Helpers over the comment-stripped code-token view
// ---------------------------------------------------------------------------

bool IsIdent(const Token* t, const char* text);
bool IsPunct(const Token* t, const char* text);

/// True if toks[i..] begins the qualified sequence std::<name>.
bool IsStdQualified(const std::vector<const Token*>& toks, size_t i,
                    const char* name);

/// Given toks[i] == "<", returns the index one past the matching ">".
/// The lexer emits ">>" as one token; it closes two levels.
size_t SkipTemplateArgs(const std::vector<const Token*>& toks, size_t i);

/// True if the statement holding toks[i] declares a static or
/// thread_local: scans back (at most 48 tokens) to the statement
/// boundary. Such a local is initialized once, not per call.
bool IsStaticDecl(const std::vector<const Token*>& toks, size_t i);

}  // namespace gnndm_lint

#endif  // GNNDM_TOOLS_LINT_LEXER_H_
