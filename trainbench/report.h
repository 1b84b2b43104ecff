#ifndef TRAINBENCH_REPORT_H_
#define TRAINBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace trainbench {

/// What one run of the benchmark reports: the metrics, the operations it
/// attempted and how many failed, the output checks that failed, and a
/// provenance record (a JSON object) printed beside the result.
struct Outcome {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  std::vector<Metric> metrics;
  uint64_t attempted = 0;  ///< epochs and eval passes
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<std::pair<std::string, std::string>> record;  ///< key, JSON

  bool correct() const { return failed == 0 && check_failures.empty(); }
  void Fail(const std::string& why) { check_failures.push_back(why); }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Record(const std::string& key, const std::string& json) {
    record.emplace_back(key, json);
  }
  /// Counts one epoch or eval pass; it fails when `ok` is false.
  void Attempt(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  /// `{"record": {...}}` — provenance, samples and the failed checks.
  std::string RecordJson() const;
  /// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
  std::string ResultJson() const;
};

double Median(std::vector<double> values);

/// Summary of one timing series: median, the highest whole percentile
/// with at least ten samples above it (none below 20 samples), and the
/// sample count, as a JSON object.
std::string TimingJson(const std::vector<double>& samples);

std::string JsonNumber(double value);
std::string JsonString(const std::string& value);
std::string JsonArray(const std::vector<double>& values);

/// Peak resident set of this process, in MiB.
double PeakRssMb();
/// CPUs this process may run on (what `nproc` prints).
int Nproc();

}  // namespace trainbench

#endif  // TRAINBENCH_REPORT_H_
