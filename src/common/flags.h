#ifndef GNNDM_COMMON_FLAGS_H_
#define GNNDM_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

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
  /// The value as a whole decimal number. A value that is not one in
  /// full (`--epochs=x`, `--epochs=3x`) is rejected: the getter returns
  /// `default_value`, and status() names the flag.
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  /// The value as a decimal number, rejected like GetInt's when it is not
  /// one in full (`--lr=0.01x`).
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;
  /// A comma-separated list of counts (`--parts=4,8`). Entries that are
  /// empty, not a whole decimal number, or outside [1, UINT32_MAX] are
  /// skipped, and appended to `rejected` when it is non-null.
  std::vector<uint32_t> GetPositiveList(
      const std::string& key, const std::string& default_csv,
      std::vector<std::string>* rejected = nullptr) const;

  /// InvalidArgument naming the first flag whose value GetInt or
  /// GetDouble rejected, e.g. "--epochs: 'x' is not a whole number"; OK
  /// when they rejected none.
  Status status() const;

 private:
  /// Records the first rejected value for status().
  void Reject(const std::string& key, const std::string& what) const;

  std::map<std::string, std::string> values_;
  mutable std::string rejected_;
};

}  // namespace gnndm

#endif  // GNNDM_COMMON_FLAGS_H_
