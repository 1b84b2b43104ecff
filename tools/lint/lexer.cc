#include "lint/lexer.h"

#include <algorithm>
#include <cctype>

namespace gnndm_lint {

namespace {
/// Multi-character operators the rules care about, longest first.
const char* kMultiPunct[] = {"::", "+=", "-=", "->", "==", "!=", "<=",
                             ">=", "&&", "||", "<<", ">>", "++", "--"};
}  // namespace

std::vector<Token> Lex(const std::string& src) {
  std::vector<Token> out;
  size_t i = 0, line = 1;
  const size_t n = src.size();
  auto peek = [&](size_t off) -> char {
    return i + off < n ? src[i + off] : '\0';
  };
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && peek(1) == '/') {
      size_t start = i + 2;
      while (i < n && src[i] != '\n') ++i;
      out.push_back({TokKind::kComment, src.substr(start, i - start), line});
      continue;
    }
    // Block comment.
    if (c == '/' && peek(1) == '*') {
      const size_t start_line = line;
      size_t start = i + 2;
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      out.push_back(
          {TokKind::kComment, src.substr(start, i - start), start_line});
      i = std::min(n, i + 2);
      continue;
    }
    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && peek(1) == '"') {
      size_t d0 = i + 2;
      size_t dp = d0;
      while (dp < n && src[dp] != '(') ++dp;
      const std::string delim = src.substr(d0, dp - d0);
      const std::string close = ")" + delim + "\"";
      const size_t start_line = line;
      size_t body = dp + 1;
      size_t end = src.find(close, body);
      if (end == std::string::npos) end = n;
      for (size_t k = i; k < end && k < n; ++k) {
        if (src[k] == '\n') ++line;
      }
      out.push_back(
          {TokKind::kString, src.substr(body, end - body), start_line});
      i = std::min(n, end + close.size());
      continue;
    }
    // String / char literal with escapes.
    if (c == '"' || c == '\'') {
      const char quote = c;
      size_t start = ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) ++i;
        if (src[i] == '\n') ++line;  // unterminated; keep line count sane
        ++i;
      }
      out.push_back({quote == '"' ? TokKind::kString : TokKind::kChar,
                     src.substr(start, i - start), line});
      if (i < n) ++i;  // closing quote
      continue;
    }
    // Identifier.
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(src[i])) ||
                       src[i] == '_')) {
        ++i;
      }
      out.push_back({TokKind::kIdent, src.substr(start, i - start), line});
      continue;
    }
    // Number (digits, hex, separators, exponents — precision is not
    // needed, only that the blob is one non-identifier token).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      while (i < n) {
        const char d = src[i];
        if (std::isalnum(static_cast<unsigned char>(d)) || d == '.' ||
            d == '\'') {
          ++i;
        } else if ((d == '+' || d == '-') && i > start &&
                   (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                    src[i - 1] == 'p' || src[i - 1] == 'P')) {
          ++i;
        } else {
          break;
        }
      }
      out.push_back({TokKind::kNumber, src.substr(start, i - start), line});
      continue;
    }
    // Punctuation; combine the multi-char operators.
    bool matched = false;
    for (const char* op : kMultiPunct) {
      const size_t len = std::string(op).size();
      if (src.compare(i, len, op) == 0) {
        out.push_back({TokKind::kPunct, op, line});
        i += len;
        matched = true;
        break;
      }
    }
    if (!matched) {
      out.push_back({TokKind::kPunct, std::string(1, c), line});
      ++i;
    }
  }
  return out;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool IsIdent(const Token* t, const char* text) {
  return t->kind == TokKind::kIdent && t->text == text;
}

bool IsPunct(const Token* t, const char* text) {
  return t->kind == TokKind::kPunct && t->text == text;
}

bool IsStdQualified(const std::vector<const Token*>& toks, size_t i,
                    const char* name) {
  return i + 2 < toks.size() && IsIdent(toks[i], "std") &&
         IsPunct(toks[i + 1], "::") && IsIdent(toks[i + 2], name);
}

size_t SkipTemplateArgs(const std::vector<const Token*>& toks, size_t i) {
  long depth = 0;
  for (; i < toks.size(); ++i) {
    if (IsPunct(toks[i], "<")) ++depth;
    if (IsPunct(toks[i], ">")) --depth;
    if (IsPunct(toks[i], ">>")) depth -= 2;
    if (depth <= 0) return i + 1;
  }
  return i;
}

bool IsStaticDecl(const std::vector<const Token*>& toks, size_t i) {
  const size_t lo = i > 48 ? i - 48 : 0;
  while (i > lo) {
    --i;
    const Token* t = toks[i];
    if (IsPunct(t, ";") || IsPunct(t, "{") || IsPunct(t, "}")) return false;
    if (IsIdent(t, "static") || IsIdent(t, "thread_local")) return true;
  }
  return false;
}

}  // namespace gnndm_lint
