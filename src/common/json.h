#ifndef GNNDM_COMMON_JSON_H_
#define GNNDM_COMMON_JSON_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace gnndm {
namespace json {

/// One parsed JSON value. Object members keep their document order.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> fields;

  /// The member named `key` of an object; null when absent.
  const Value* Find(const std::string& key) const;
  /// The number member `key`, or `fallback` when absent or not a number.
  double NumberOr(const std::string& key, double fallback) const;
  /// The string member `key`, or `fallback` when absent or not a string.
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const;
};

/// The repo's one JSON grammar: exactly RFC 8259 (numbers, escapes and
/// control characters included) plus two limits of its own — a duplicate
/// member name in one object is an error (every consumer of our JSON
/// treats objects as maps, so a duplicate always means a writer bug), and
/// so is nesting deeper than 64. With `out` null the text is only
/// checked and no value is built. String escapes decode, except a
/// \uXXXX above U+007F, which is kept as written.
[[nodiscard]] Status Parse(const std::string& text, Value* out);

/// The repo's one string escaper: `s` as the body of a JSON string
/// literal (quotes not included). `"` and `\` get a backslash, \n \t \r
/// their two-character escapes, and every other control character
/// \u00XX, so Parse decodes the result back to `s`.
std::string Escape(const std::string& s);

/// The repo's one number formatter: `v` printed "%.9g", or "0" for an
/// infinity or NaN, which JSON cannot spell.
std::string Number(double v);

}  // namespace json
}  // namespace gnndm

#endif  // GNNDM_COMMON_JSON_H_
