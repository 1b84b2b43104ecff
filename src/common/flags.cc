#include "common/flags.h"

#include <cstdlib>
#include <string_view>

namespace gnndm {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.size() < 3 || arg.substr(0, 2) != "--") continue;
    arg.remove_prefix(2);
    size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      values_[std::string(arg)] = "true";
    } else {
      values_[std::string(arg.substr(0, eq))] =
          std::string(arg.substr(eq + 1));
    }
  }
}

bool Flags::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

int64_t Flags::GetInt(const std::string& key, int64_t default_value) const {
  auto it = values_.find(key);
  return it == values_.end()
             ? default_value
             : static_cast<int64_t>(std::strtoll(it->second.c_str(),
                                                 nullptr, 10));
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  auto it = values_.find(key);
  return it == values_.end() ? default_value
                             : std::strtod(it->second.c_str(), nullptr);
}

bool Flags::GetBool(const std::string& key, bool default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<uint32_t> Flags::GetPositiveList(
    const std::string& key, const std::string& default_csv) const {
  const std::string csv = GetString(key, default_csv);
  std::vector<uint32_t> out;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    const std::string entry = csv.substr(start, comma - start);
    char* end = nullptr;
    const long long v = std::strtoll(entry.c_str(), &end, 10);
    if (end != entry.c_str() && *end == '\0' && v >= 1 && v <= UINT32_MAX) {
      out.push_back(static_cast<uint32_t>(v));
    }
    start = comma + 1;
  }
  return out;
}

}  // namespace gnndm
