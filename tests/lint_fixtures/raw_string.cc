// Fixture: raw string literals full of braces, parens, quotes, and
// keywords are opaque to the call graph. The loop after the literal
// must still be recognized as a hot loop and its allocation flagged.
#include <cstddef>
#include <string>

namespace gnndm {

// gnndm-hot
std::string RawStringThenHotLoop(size_t n) {
  const char* text = R"json({"for": "(", "while": "{{", "new": "} } )"})json";
  std::string out;  // expect: clean (before the loop)
  for (size_t i = 0; i < n; ++i) {
    std::string copy(text);  // expect: hot-path-alloc
    out += copy;
  }
  return out;
}

}  // namespace gnndm
