#include "report.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace trainbench {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string TimingJson(const std::vector<double>& samples) {
  std::string out = "{\"median\": " + JsonNumber(Median(samples)) +
                    ", \"samples\": " + std::to_string(samples.size());
  const size_t n = samples.size();
  if (n >= 20) {
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    const size_t pct = 100 * (n - 10) / n;
    const size_t rank = (pct * n + 99) / 100;  // nearest rank, 1-based
    out += ", \"p" + std::to_string(pct) +
           "\": " + JsonNumber(sorted[rank - 1]);
  }
  return out + "}";
}

std::string Outcome::RecordJson() const {
  std::string out = "{\"record\": {";
  for (size_t i = 0; i < record.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(record[i].first) + ": " + record[i].second;
  }
  out += std::string(record.empty() ? "" : ", ") + "\"check_failures\": [";
  for (size_t i = 0; i < check_failures.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(check_failures[i]);
  }
  return out + "]}}";
}

std::string Outcome::ResultJson() const {
  std::string out = std::string("{\"correct\": ") +
                    (correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) +
           ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}}";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace trainbench
