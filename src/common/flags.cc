#include "common/flags.h"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <string_view>
#include <system_error>

#include "common/status.h"

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
  if (it == values_.end()) return default_value;
  const std::string& text = it->second;
  int64_t value = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || error != std::errc() ||
      end != text.data() + text.size()) {
    Reject(key, "'" + text + "' is not a whole number");
    return default_value;
  }
  return value;
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  const std::string& text = it->second;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || errno == ERANGE || end != text.c_str() + text.size()) {
    Reject(key, "'" + text + "' is not a number");
    return default_value;
  }
  return value;
}

void Flags::Reject(const std::string& key, const std::string& what) const {
  if (rejected_.empty()) rejected_ = "--" + key + ": " + what;
}

Status Flags::status() const {
  return rejected_.empty() ? Status::Ok()
                           : Status::InvalidArgument(rejected_);
}

bool Flags::GetBool(const std::string& key, bool default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<uint32_t> Flags::GetPositiveList(
    const std::string& key, const std::string& default_csv,
    std::vector<std::string>* rejected) const {
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
    } else if (rejected != nullptr) {
      rejected->push_back(entry);
    }
    start = comma + 1;
  }
  return out;
}

}  // namespace gnndm
