#ifndef GNNDM_COMMON_FLAGS_H_
#define GNNDM_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gnndm {

/// Minimal `--key=value` command-line parser used by the bench binaries and
/// examples (e.g. `fig09_batch_size --dataset=reddit_s --csv=out.csv`).
/// Unrecognized positional arguments are ignored.
class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& key) const;
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;
  /// A comma-separated list of counts (`--parts=4,8`). Entries that are
  /// empty, not a whole decimal number, or outside [1, UINT32_MAX] are
  /// skipped, and appended to `rejected` when it is non-null.
  std::vector<uint32_t> GetPositiveList(
      const std::string& key, const std::string& default_csv,
      std::vector<std::string>* rejected = nullptr) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace gnndm

#endif  // GNNDM_COMMON_FLAGS_H_
