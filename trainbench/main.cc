// trainbench: the end-to-end training benchmark's program. run.py builds
// it and drives it; README.md describes the workloads and metrics.
//
//   trainbench gen   --workload=W --seed=N --out=FILE
//   trainbench run   --workload=W --seed=N --seconds=S --input=FILE
//   trainbench trace --workload=W --seed=N --seconds=S --input=FILE
//                    --trace_out=FILE.json
//
// `gen` writes the seeded input with SaveDataset. `run` and `trace` read
// only that file, print a provenance record line and then the result
// line, and exit 1 when an output check or an operation failed.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/telemetry.h"
#include "graph/io.h"
#include "modes.h"
#include "report.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: trainbench gen|run|trace --workload=W --seed=N "
               "[--out=FILE | --input=FILE --seconds=S "
               "[--trace_out=FILE]]\n");
  return 2;
}

// The run_meta block every bench artifact in the repo carries, for this
// workload's loader-worker count.
std::string RunMeta(const trainbench::Workload& workload) {
  const std::string workers =
      "--loader-workers=" + std::to_string(workload.config.loader_workers);
  std::vector<char*> argv = {const_cast<char*>("trainbench"),
                             const_cast<char*>(workers.c_str())};
  return gnndm::bench::RunMetaJson(
      gnndm::Flags(static_cast<int>(argv.size()), argv.data()));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  const gnndm::Flags flags(argc, argv);
  const trainbench::Workload* workload =
      trainbench::FindWorkload(flags.GetString("workload", ""));
  if (workload == nullptr || !flags.Has("seed")) return Usage();
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
  // The seed drives the input and the training randomness alike.
  trainbench::Workload seeded = *workload;
  seeded.config.seed = seed;

  if (mode == "gen") {
    if (!flags.Has("out")) return Usage();
    const gnndm::Dataset dataset =
        trainbench::GenerateInput(seeded.feature_dim, seed);
    const gnndm::Status status =
        gnndm::SaveDataset(dataset, flags.GetString("out", ""));
    if (!status.ok()) {
      std::fprintf(stderr, "trainbench: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if ((mode != "run" && mode != "trace") || !flags.Has("input") ||
      !flags.Has("seconds")) {
    return Usage();
  }
  const std::string input = flags.GetString("input", "");
  const double seconds = flags.GetDouble("seconds", 0.0);
  if (!(seconds > 0.0)) return Usage();
  const std::string identity =
      "\"workload\": " + trainbench::JsonString(seeded.name) +
      ", \"seed\": " + std::to_string(seed) +
      ", \"nproc\": " + std::to_string(trainbench::Nproc());
  trainbench::Outcome outcome;
  if (mode == "run") {
    outcome = trainbench::RunMeasured(seeded, input, seconds);
  } else {
    if (!flags.Has("trace_out")) return Usage();
    outcome = trainbench::RunTraced(seeded, input, seconds,
                                    flags.GetString("trace_out", ""),
                                    "{" + identity + "}");
  }
  // Provenance first in the record: what ran, where, from which build.
  outcome.record.insert(
      outcome.record.begin(),
      {{"workload", trainbench::JsonString(seeded.name)},
       {"mode", trainbench::JsonString(mode)},
       {"seed", std::to_string(seed)},
       {"nproc", std::to_string(trainbench::Nproc())},
       {"telemetry", gnndm::telemetry::Enabled() ? "true" : "false"},
       {"run_meta", RunMeta(seeded)}});
  std::printf("%s\n%s\n", outcome.RecordJson().c_str(),
              outcome.ResultJson().c_str());
  return outcome.correct() ? 0 : 1;
}
