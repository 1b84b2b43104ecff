#ifndef TRAINBENCH_MODES_H_
#define TRAINBENCH_MODES_H_

#include <cstdint>
#include <string>

#include "report.h"
#include "workloads.h"

namespace trainbench {

/// Untraced run: trains the workload through gnndm's public trainers on
/// the generated input at `input_path` and reports the end-to-end
/// metrics (README.md, "End-to-end metrics").
Outcome RunMeasured(const Workload& workload, const std::string& input_path,
                    double seconds);

/// Traced run: replays the workload call by call through each layer's
/// public functions, recording a span per call, and reports the
/// per-layer metrics. Writes the spans as Chrome-trace JSON to
/// `trace_path`; `meta` (a JSON object) is embedded in it.
Outcome RunTraced(const Workload& workload, const std::string& input_path,
                  double seconds, const std::string& trace_path,
                  const std::string& meta);

}  // namespace trainbench

#endif  // TRAINBENCH_MODES_H_
