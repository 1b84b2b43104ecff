#include "common/json.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>

#include "common/status.h"

namespace gnndm {
namespace json {

const Value* Value::Find(const std::string& key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Value::NumberOr(const std::string& key, double fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
}

std::string Value::StringOr(const std::string& key,
                            const std::string& fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->kind == Kind::kString ? v->str : fallback;
}

namespace {

/// Recursive-descent parser over the grammar documented on Parse.
/// Depth-limited so hostile input cannot blow the stack.
class Parser {
 public:
  explicit Parser(const std::string& text)
      : p_(text.data()), end_(p_ + text.size()) {}

  Status Run(Value* out) {
    GNNDM_RETURN_IF_ERROR(ParseValue(0, out));
    SkipWs();
    if (p_ != end_) return Fail("trailing characters after JSON value");
    return Status::Ok();
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(offset_));
  }

  void SkipWs() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                          *p_ == '\r')) {
      Advance();
    }
  }

  void Advance() {
    ++p_;
    ++offset_;
  }

  bool Consume(char c) {
    if (p_ != end_ && *p_ == c) {
      Advance();
      return true;
    }
    return false;
  }

  bool AtDigit() const {
    return p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_));
  }

  void SkipDigits() {
    while (AtDigit()) Advance();
  }

  Status Literal(const char* word) {
    for (const char* w = word; *w != '\0'; ++w) {
      if (p_ == end_ || *p_ != *w) return Fail("bad literal");
      Advance();
    }
    return Status::Ok();
  }

  /// `raw`, when non-null, receives the text between the quotes with
  /// escapes left as written — identical spellings compare equal, which
  /// is what duplicate detection needs (a writer emitting the same key
  /// twice emits the same bytes twice). `decoded`, when non-null,
  /// receives the string value.
  Status String(std::string* raw, std::string* decoded) {
    if (!Consume('"')) return Fail("expected string");
    const char* body = p_;
    if (decoded != nullptr) decoded->clear();
    while (p_ != end_ && *p_ != '"') {
      char c = *p_;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c == '\\') {
        Advance();
        if (p_ == end_) return Fail("truncated escape");
        if (*p_ == 'u') {
          const char* escape = p_ - 1;
          Advance();
          for (int i = 0; i < 4; ++i) {
            if (p_ == end_ ||
                !std::isxdigit(static_cast<unsigned char>(*p_))) {
              return Fail("bad \\u escape");
            }
            Advance();
          }
          if (decoded != nullptr) {
            const long code = std::strtol(std::string(escape + 2, p_).c_str(),
                                          nullptr, 16);
            if (code < 0x80) {
              decoded->push_back(static_cast<char>(code));
            } else {
              decoded->append(escape, p_);
            }
          }
          continue;
        }
        switch (*p_) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          default: return Fail("bad escape character");
        }
      }
      if (decoded != nullptr) decoded->push_back(c);
      Advance();
    }
    if (raw != nullptr) raw->assign(body, p_);
    if (!Consume('"')) return Fail("unterminated string");
    return Status::Ok();
  }

  Status Number(Value* out) {
    const char* begin = p_;
    Consume('-');
    if (!AtDigit()) return Fail("expected digit");
    if (*p_ == '0') {
      Advance();
    } else {
      SkipDigits();
    }
    if (Consume('.')) {
      if (!AtDigit()) return Fail("expected fraction digits");
      SkipDigits();
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      Advance();
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) Advance();
      if (!AtDigit()) return Fail("expected exponent digits");
      SkipDigits();
    }
    if (out != nullptr) {
      // Range is not part of the grammar: a magnitude beyond double
      // becomes an infinity (or zero), as strtod rounds it.
      out->kind = Value::Kind::kNumber;
      out->number = std::strtod(std::string(begin, p_).c_str(), nullptr);
    }
    return Status::Ok();
  }

  Status ParseValue(int depth, Value* out) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipWs();
    if (p_ == end_) return Fail("unexpected end of input");
    switch (*p_) {
      case '{':
        return Object(depth, out);
      case '[':
        return Array(depth, out);
      case '"':
        if (out != nullptr) out->kind = Value::Kind::kString;
        return String(nullptr, out != nullptr ? &out->str : nullptr);
      case 't':
        if (out != nullptr) {
          out->kind = Value::Kind::kBool;
          out->boolean = true;
        }
        return Literal("true");
      case 'f':
        if (out != nullptr) out->kind = Value::Kind::kBool;
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number(out);
    }
  }

  Status Object(int depth, Value* out) {
    Advance();
    if (out != nullptr) out->kind = Value::Kind::kObject;
    SkipWs();
    if (Consume('}')) return Status::Ok();
    std::set<std::string> keys;
    std::string raw;
    std::string name;
    for (;;) {
      SkipWs();
      GNNDM_RETURN_IF_ERROR(String(&raw, out != nullptr ? &name : nullptr));
      if (!keys.insert(raw).second) {
        return Fail("duplicate object key \"" + raw + "\"");
      }
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      Value* member = nullptr;
      if (out != nullptr) {
        member = &out->fields.emplace_back(std::move(name), Value{}).second;
      }
      GNNDM_RETURN_IF_ERROR(ParseValue(depth + 1, member));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Fail("expected ',' or '}'");
    }
  }

  Status Array(int depth, Value* out) {
    Advance();
    if (out != nullptr) out->kind = Value::Kind::kArray;
    SkipWs();
    if (Consume(']')) return Status::Ok();
    for (;;) {
      Value* item = out != nullptr ? &out->items.emplace_back() : nullptr;
      GNNDM_RETURN_IF_ERROR(ParseValue(depth + 1, item));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Fail("expected ',' or ']'");
    }
  }

  const char* p_;
  const char* end_;
  size_t offset_ = 0;
};

}  // namespace

Status Parse(const std::string& text, Value* out) {
  if (out != nullptr) *out = Value{};
  return Parser(text).Run(out);
}

size_t EscapeChar(char c, char out[6]) {
  // Pairs of (character, the letter after its backslash).
  static constexpr char kNamed[] = "\"\"\\\\\nn\tt\rr";
  for (size_t i = 0; i + 1 < sizeof(kNamed); i += 2) {
    if (c != kNamed[i]) continue;
    out[0] = '\\';
    out[1] = kNamed[i + 1];
    return 2;
  }
  const auto byte = static_cast<unsigned char>(c);
  if (byte >= 0x20) {
    out[0] = c;
    return 1;
  }
  static constexpr char kHex[] = "0123456789abcdef";
  const char escaped[6] = {'\\', 'u', '0', '0', kHex[byte >> 4],
                           kHex[byte & 15]};
  std::copy(escaped, escaped + 6, out);
  return 6;
}

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  char escaped[6];
  for (const char c : s) out.append(escaped, EscapeChar(c, escaped));
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace json
}  // namespace gnndm
