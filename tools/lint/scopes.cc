#include "lint/scopes.h"

#include <set>
#include <string>

namespace gnndm_lint {

namespace {

struct ScopeFrame {
  char kind;        // 'n'amespace 't'ype 'f'unction 'l'ambda l'o'op
                    // 'c'ontrol 'b'lock/init-list 'v'irtual braceless loop
  bool hot = false; // function frame carries a // gnndm-hot annotation
  long paren = 0;   // paren depth at push (virtual frames pop on ';' here)
};

}  // namespace

std::vector<uint8_t> ScanScopes(const SourceFile& f,
                                const std::vector<const Token*>& toks,
                                const std::vector<bool>& pp_lines) {
  // Lines carrying a `// gnndm-hot` annotation: the annotation marks the
  // function whose declaration starts on (or just below) that line.
  std::set<size_t> hot_lines;
  for (const Token& t : f.tokens) {
    if (t.kind == TokKind::kComment &&
        t.text.find("gnndm-hot") != std::string::npos) {
      hot_lines.insert(t.line);
    }
  }

  std::vector<uint8_t> flags(toks.size(), 0);
  std::vector<ScopeFrame> stack;
  std::vector<char> paren_kinds;  // what each open '(' belongs to
  std::vector<long> par_ext;      // paren depths where ParallelFor extents end
  long paren = 0;
  char pending_ctrl = 0;    // loop/control keyword awaiting its '('
  char closed_header = 0;   // kind of the paren group that just closed
  bool pending_type = false;
  bool pending_ns = false;
  size_t decl_start_line = 1;
  bool decl_start_pending = true;  // next token begins a declaration

  auto at_decl_scope = [&]() {
    for (const ScopeFrame& fr : stack) {
      if (fr.kind != 'n' && fr.kind != 't') return false;
    }
    return true;
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token* t = toks[i];
    const bool is_pp = t->line < pp_lines.size() && pp_lines[t->line];

    // Flags reflect the state *around* this token.
    uint8_t fl = 0;
    bool only_ns = true, in_loop = false, in_lambda = false, hot = false;
    for (const ScopeFrame& fr : stack) {
      if (fr.kind != 'n') only_ns = false;
      if (fr.kind == 'o' || fr.kind == 'v') in_loop = true;
      if (fr.kind == 'l') in_lambda = true;
      if (fr.hot) hot = true;
    }
    if (only_ns) fl |= kNsScope;
    if (in_loop) fl |= kInLoop;
    if (!par_ext.empty()) fl |= kInParallel;
    if (hot) fl |= kInHotFn;
    if (in_lambda) fl |= kInLambda;
    if (is_pp) fl |= kPp;
    flags[i] = fl;
    if (is_pp) continue;  // directives don't drive scope structure

    if (decl_start_pending && t->kind != TokKind::kComment) {
      decl_start_line = t->line;
      decl_start_pending = false;
    }

    if (t->kind == TokKind::kIdent) {
      const std::string& s = t->text;
      if (s == "namespace") {
        pending_ns = true;
      } else if (s == "class" || s == "struct" || s == "union" ||
                 s == "enum") {
        pending_type = true;
      } else if (s == "for" || s == "while") {
        pending_ctrl = 'o';
      } else if (s == "if" || s == "switch" || s == "catch") {
        pending_ctrl = 'c';
      } else if (s == "do") {
        // `do { ... } while (...)` — body brace follows directly;
        // a braceless do-body gets a virtual loop frame.
        if (i + 1 < toks.size() && IsPunct(toks[i + 1], "{")) {
          closed_header = 'o';
        } else {
          stack.push_back({'v', false, paren});
        }
      } else if ((s == "ParallelFor" || s == "ParallelFor2D") &&
                 i + 1 < toks.size() && IsPunct(toks[i + 1], "(")) {
        // A *call* — not a declaration/definition, which has a return
        // type identifier before the (possibly qualified) name. Walk
        // back over `Ident::` qualifiers: `void ThreadPool::ParallelFor(`
        // is a definition, `gnndm::ParallelFor(` a call.
        size_t q = i;
        while (q >= 2 && IsPunct(toks[q - 1], "::") &&
               toks[q - 2]->kind == TokKind::kIdent) {
          q -= 2;
        }
        const bool declaration =
            q > 0 && toks[q - 1]->kind == TokKind::kIdent;
        // Everything up to the matching ')' — lambda body included — is
        // the parallel extent.
        if (!declaration) par_ext.push_back(paren);
      }
      continue;
    }

    if (t->kind != TokKind::kPunct) continue;
    const std::string& p = t->text;

    if (p == "(") {
      char k = '.';
      if (pending_ctrl != 0) {
        k = pending_ctrl;
        pending_ctrl = 0;
      } else if (i > 0 && IsPunct(toks[i - 1], "]")) {
        k = 'l';  // lambda introducer's parameter list
      }
      paren_kinds.push_back(k);
      ++paren;
    } else if (p == ")") {
      --paren;
      closed_header = paren_kinds.empty() ? '.' : paren_kinds.back();
      if (!paren_kinds.empty()) paren_kinds.pop_back();
      if (!par_ext.empty() && paren == par_ext.back()) par_ext.pop_back();
      // Braceless loop body: push a virtual frame popped at the
      // statement-ending ';' (or at the '}' of a braced sub-statement).
      if (closed_header == 'o' && i + 1 < toks.size() &&
          !IsPunct(toks[i + 1], "{")) {
        stack.push_back({'v', false, paren});
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
        kind = 'l';  // capture-only lambda: [..]{ }
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
        kind = 'b';  // braced initializer / aggregate literal
      } else if (at_decl_scope() &&
                 (prev == nullptr || IsPunct(prev, ")") ||
                  IsPunct(prev, "}") || IsPunct(prev, ">") ||
                  IsPunct(prev, "&") || IsPunct(prev, "&&") ||
                  IsIdent(prev, "const") || IsIdent(prev, "noexcept") ||
                  IsIdent(prev, "override") || IsIdent(prev, "final") ||
                  IsIdent(prev, "try"))) {
        kind = 'f';  // function body (incl. after ctor-init-list / specifiers)
      } else {
        kind = 'b';
      }
      bool hot_fn = false;
      if (kind == 'f') {
        // Annotated if a // gnndm-hot comment sits on the line above the
        // declaration or anywhere across the signature lines.
        for (size_t ln = decl_start_line > 0 ? decl_start_line - 1 : 0;
             ln <= t->line; ++ln) {
          if (hot_lines.count(ln) > 0) hot_fn = true;
        }
      }
      stack.push_back({kind, hot_fn, paren});
      pending_ns = false;
      pending_type = false;
      closed_header = 0;
      decl_start_pending = true;
    } else if (p == "}") {
      if (!stack.empty()) stack.pop_back();
      // A braced sub-statement ends a braceless loop body:
      //   for (...) if (...) { ... }   <- the for's statement ends here
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
      pending_type = false;  // `class X;` forward declaration
      closed_header = 0;
      decl_start_pending = true;
    }
  }
  return flags;
}

}  // namespace gnndm_lint
