// gnndm_train — fully configurable end-to-end training CLI: every data
// management knob the library exposes, on one command line.
//
//   $ gnndm_train --dataset=reddit_s --model=gcn --batch_size=512
//             --fanouts=25,10 --transfer=zero-copy --pipeline=bp-dt
//             --cache=presample --cache_ratio=0.2 --epochs=20
//
// Distributed mode partitions the graph and trains over simulated
// workers:
//
//   $ gnndm_train --dataset=products_s --workers=4 --partitioner=metis-vet
//
// Datasets can also come from a file produced by gnndm_datagen:
//
//   $ gnndm_train --dataset_file=my.gnndm
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/flight_recorder.h"
#include "common/parallel_for.h"
#include "common/telemetry.h"
#include "core/attribution.h"
#include "core/full_batch.h"
#include "core/trainer.h"
#include "dist/dist_trainer.h"
#include "graph/dataset.h"
#include "graph/io.h"
#include "nn/checkpoint.h"
#include "partition/edge_partitioner.h"
#include "partition/hash_partitioner.h"
#include "partition/metis_partitioner.h"
#include "partition/partitioner.h"
#include "partition/stream_partitioner.h"
#include "sampling/neighbor_sampler.h"
#include "tensor/simd.h"
#include "transfer/pipeline.h"

namespace gnndm {
namespace {

/// The sampler's hops from --hybrid, --rate or --fanouts; an error
/// naming the first --fanouts entry that is not a positive whole number.
Result<std::vector<HopSpec>> ParseHops(const Flags& flags) {
  std::vector<HopSpec> hops;
  const double rate = flags.GetDouble("rate", 0.0);
  if (flags.Has("hybrid")) {
    // --hybrid=<fanout>,<rate>,<threshold>, applied at every hop; the
    // number of hops follows --layers (default 2).
    const auto layers = static_cast<uint32_t>(flags.GetInt("layers", 2));
    HopSpec spec = HopSpec::Hybrid(
        static_cast<uint32_t>(flags.GetInt("hybrid_fanout", 16)),
        flags.GetDouble("hybrid_rate", 0.3),
        static_cast<uint32_t>(flags.GetInt("hybrid_threshold", 32)));
    hops.assign(layers, spec);
  } else if (rate > 0.0) {
    const auto layers = static_cast<uint32_t>(flags.GetInt("layers", 2));
    hops.assign(layers, HopSpec::Rate(rate));
  } else {
    std::vector<std::string> rejected;
    for (uint32_t fanout :
         flags.GetPositiveList("fanouts", "25,10", &rejected)) {
      hops.push_back(HopSpec::Fanout(fanout));
    }
    if (!rejected.empty()) {
      return Status::InvalidArgument("entry '" + rejected.front() +
                                     "' is not a positive whole number");
    }
  }
  return hops;
}

std::unique_ptr<Partitioner> MakePartitioner(const std::string& name) {
  if (name == "hash") return std::make_unique<HashPartitioner>();
  if (name == "edge-hash") return std::make_unique<EdgeHashPartitioner>();
  if (name == "metis-v") {
    return std::make_unique<MetisPartitioner>(MetisMode::kV);
  }
  if (name == "metis-ve") {
    return std::make_unique<MetisPartitioner>(MetisMode::kVE);
  }
  if (name == "metis-vet") {
    return std::make_unique<MetisPartitioner>(MetisMode::kVET);
  }
  if (name == "stream-v") return std::make_unique<StreamVPartitioner>(2);
  if (name == "stream-b") return std::make_unique<StreamBPartitioner>();
  return nullptr;
}

/// The --pipeline mode; an error for a name that is not one.
Result<PipelineMode> ParsePipeline(const std::string& name) {
  if (name == "none") return PipelineMode::kNone;
  if (name == "bp") return PipelineMode::kOverlapBp;
  if (name == "bp-dt") return PipelineMode::kOverlapBpDt;
  return Status::InvalidArgument("'" + name +
                                 "' is not one of none, bp, bp-dt");
}

/// The --report output: per-epoch stall attribution plus the
/// steady-state bottleneck verdict.
void PrintAttributionReport(const std::vector<EpochAttribution>& history) {
  std::printf("%s", AttributionReport(history).ToAscii().c_str());
  std::printf("bottleneck verdict: %s\n",
              BottleneckName(SteadyStateVerdict(history)));
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.Has("help")) {
    std::printf(
        "gnndm_train: end-to-end GNN training with configurable data "
        "management.\n"
        "  --dataset=NAME | --dataset_file=PATH\n"
        "  --model=gcn|graphsage|mlp  --hidden=N  --layers=N  --lr=F\n"
        "  --batch_size=N | --adaptive (with --adaptive_initial/max)\n"
        "  --fanouts=a,b,... | --rate=F | --hybrid\n"
        "  --selector=random|cluster\n"
        "  --transfer=extract-load|zero-copy|hybrid  "
        "--pipeline=none|bp|bp-dt\n"
        "  --cache=none|degree|presample  --cache_ratio=F\n"
        "  --loader-workers=N  batch-producer workers (0 = prepare\n"
        "                      inline; output is byte-identical at any N,\n"
        "                      single-worker or --workers>1)\n"
        "  --queue-depth=N     prefetch window of the async source\n"
        "  --save=FILE.gnck  --load=FILE.gnck\n"
        "  --workers=N  --partitioner=hash|metis-v|metis-ve|metis-vet|"
        "stream-v|stream-b|edge-hash\n"
        "  --full_batch  --epochs=N  --seed=N\n"
        "  --threads=N   compute threads for the parallel kernels\n"
        "                (0 = GNNDM_THREADS env or hardware default;\n"
        "                 results are byte-identical at any value)\n"
        "  --simd=auto|scalar|avx2|avx512|neon  kernel instruction-set "
        "tier\n"
        "                (auto = best supported, or GNNDM_SIMD env;\n"
        "                 results are byte-identical on every tier)\n"
        "  --trace-out=FILE.json    Chrome trace (chrome://tracing or\n"
        "                           ui.perfetto.dev) of all pipeline spans\n"
        "  --metrics-out=FILE.json  metrics snapshot (counters/histograms)\n"
        "  --telemetry=0            disable all telemetry (output is\n"
        "                           byte-identical either way)\n"
        "  --report                 print the per-epoch stall-attribution\n"
        "                           table and the steady-state bottleneck\n"
        "                           verdict after training\n"
        "  --postmortem=FILE.json   arm the crash flight recorder: a fatal\n"
        "                           signal or failed GNNDM_CHECK dumps the\n"
        "                           recent-event rings + metrics here\n"
        "                           (also via the GNNDM_POSTMORTEM env)\n");
    return 0;
  }

  // --- Telemetry. Tracing only observes: training output is
  // byte-identical with any combination of these flags. ---
  const std::string trace_out = flags.GetString("trace-out", "");
  const std::string metrics_out = flags.GetString("metrics-out", "");
  telemetry::SetEnabled(flags.GetBool("telemetry", true));
  if (!trace_out.empty()) telemetry::Tracer::Get().Start();

  // --- Crash flight recorder. Recording is always on (lock- and
  // allocation-free); a dump target arms the post-mortem paths. ---
  if (flags.Has("postmortem")) {
    flight_recorder::SetPostMortemPath(flags.GetString("postmortem", ""));
  }
  if (!flight_recorder::PostMortemPath().empty()) {
    flight_recorder::InstallCrashHandlers();
  }

  // --- Config. Every flag is parsed, and a malformed value rejected
  // with exit 2, before anything is loaded or trained. ---
  Result<std::vector<HopSpec>> hops = ParseHops(flags);
  if (!hops.ok()) {
    std::fprintf(stderr, "--fanouts: %s\n", hops.status().ToString().c_str());
    return 2;
  }
  Result<PipelineMode> pipeline =
      ParsePipeline(flags.GetString("pipeline", "none"));
  if (!pipeline.ok()) {
    std::fprintf(stderr, "--pipeline: %s\n",
                 pipeline.status().ToString().c_str());
    return 2;
  }
  TrainerConfig config;
  config.model = flags.GetString("model", "gcn");
  config.hidden_dim = static_cast<size_t>(flags.GetInt("hidden", 32));
  config.num_conv_layers =
      static_cast<uint32_t>(flags.GetInt("layers", 2));
  config.learning_rate =
      static_cast<float>(flags.GetDouble("lr", 0.01));
  config.batch_size =
      static_cast<uint32_t>(flags.GetInt("batch_size", 512));
  config.hops = std::move(hops).value();
  config.batch_selector = flags.GetString("selector", "random");
  config.adaptive_batch = flags.GetBool("adaptive", false);
  config.adaptive_initial =
      static_cast<uint32_t>(flags.GetInt("adaptive_initial", 64));
  config.adaptive_max =
      static_cast<uint32_t>(flags.GetInt("adaptive_max", 1024));
  config.transfer = flags.GetString("transfer", "extract-load");
  config.pipeline = pipeline.value();
  config.cache_policy = flags.GetString("cache", "none");
  config.cache_ratio = flags.GetDouble("cache_ratio", 0.0);
  config.loader_workers =
      static_cast<size_t>(flags.GetInt("loader-workers", 0));
  config.async_queue_depth = static_cast<size_t>(flags.GetInt(
      "queue-depth", static_cast<int64_t>(config.async_queue_depth)));
  config.p3_feature_parallel = flags.GetBool("p3", false);
  config.num_threads = static_cast<size_t>(flags.GetInt("threads", 0));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  if (config.hops.size() != config.num_conv_layers &&
      config.model != "mlp") {
    config.num_conv_layers =
        static_cast<uint32_t>(config.hops.size());
  }

  const auto epochs = static_cast<uint32_t>(flags.GetInt("epochs", 10));
  const auto workers = static_cast<uint32_t>(flags.GetInt("workers", 1));
  if (Status status = flags.status(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.message().c_str());
    return 2;
  }

  // Apply kernel threading before any compute (--workers partitions the
  // graph before its trainer applies config.num_threads).
  if (flags.Has("threads")) SetComputeThreads(config.num_threads);

  // Pin the SIMD tier before any kernel runs. Purely a speed knob: every
  // tier produces byte-identical results (fixed 8-lane reduction order).
  if (Status simd_status =
          SetSimdTierByName(flags.GetString("simd", "auto"));
      !simd_status.ok()) {
    std::fprintf(stderr, "--simd: %s\n", simd_status.ToString().c_str());
    return 2;
  }

  // --- Dataset ---
  Result<Dataset> dataset = flags.Has("dataset_file")
                                ? LoadDatasetFile(flags.GetString(
                                      "dataset_file", ""))
                                : LoadDataset(
                                      flags.GetString("dataset", "reddit_s"),
                                      config.seed);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }

  std::printf("dataset=%s |V|=%u |E|=%llu classes=%u train=%zu\n",
              dataset->name.c_str(), dataset->graph.num_vertices(),
              static_cast<unsigned long long>(dataset->graph.num_edges()),
              dataset->num_classes, dataset->split.train.size());

  // --- Train ---
  // Whichever trainer runs: --load restores its model before `run`
  // trains and evaluates, --report prints its stall attribution after,
  // and --save writes its model last.
  const auto checkpointed = [&](TrainerBase& trainer, auto&& run) -> int {
    if (flags.Has("load")) {
      Status status =
          LoadCheckpoint(trainer.model(), flags.GetString("load", ""));
      if (!status.ok()) {
        std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
        return 1;
      }
      std::printf("restored checkpoint\n");
    }
    run();
    if (flags.GetBool("report", false)) {
      PrintAttributionReport(trainer.attribution_history());
    }
    if (flags.Has("save")) {
      Status status =
          SaveCheckpoint(trainer.model(), flags.GetString("save", ""));
      if (!status.ok()) {
        std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
        return 1;
      }
      std::printf("checkpoint written to %s\n",
                  flags.GetString("save", "").c_str());
    }
    return 0;
  };
  int rc = 0;
  if (flags.GetBool("full_batch", false)) {
    FullBatchTrainer trainer(*dataset, config);
    rc = checkpointed(trainer, [&] {
      for (uint32_t e = 0; e < epochs; ++e) {
        EpochStats stats = trainer.TrainEpoch();
        std::printf("epoch %3u  loss %.4f  val %.3f  %.4fs\n", e,
                    stats.train_loss, trainer.Evaluate(dataset->split.val),
                    stats.epoch_seconds);
      }
      std::printf("test accuracy %.3f  peak device memory %.1f MB\n",
                  trainer.Evaluate(dataset->split.test),
                  trainer.PeakMemoryBytes() / 1e6);
    });
  } else if (workers > 1) {
    auto partitioner =
        MakePartitioner(flags.GetString("partitioner", "metis-vet"));
    if (partitioner == nullptr) {
      std::fprintf(stderr, "error: unknown partitioner\n");
      return 1;
    }
    PartitionResult partition = partitioner->Partition(
        {dataset->graph, dataset->split}, workers, config.seed);
    std::printf("partitioner=%s  cut=%llu  partition_time=%.3fs\n",
                partitioner->name().c_str(),
                static_cast<unsigned long long>(
                    partition.EdgeCut(dataset->graph)),
                partition.seconds);
    DistTrainer trainer(*dataset, partition, config);
    rc = checkpointed(trainer, [&] {
      for (uint32_t e = 0; e < epochs; ++e) {
        DistEpochStats stats = trainer.TrainEpoch();
        std::printf("epoch %3u  loss %.4f  val %.3f  %.4fs\n", e,
                    stats.train_loss, trainer.Evaluate(dataset->split.val),
                    stats.epoch_seconds);
      }
      std::printf("test accuracy %.3f\n",
                  trainer.Evaluate(dataset->split.test));
    });
  } else {
    Trainer trainer(*dataset, config);
    rc = checkpointed(trainer, [&] {
      for (uint32_t e = 0; e < epochs; ++e) {
        EpochStats stats = trainer.TrainEpoch();
        std::printf(
            "epoch %3u  loss %.4f  val %.3f  %.4fs  (bp %.0f%% dt %.0f%% "
            "nn %.0f%%, %.2f MB moved)\n",
            e, stats.train_loss, trainer.Evaluate(dataset->split.val),
            stats.epoch_seconds,
            100.0 * stats.batch_prep_seconds /
                (stats.batch_prep_seconds + stats.extract_seconds +
                 stats.load_seconds + stats.nn_seconds),
            100.0 * (stats.extract_seconds + stats.load_seconds) /
                (stats.batch_prep_seconds + stats.extract_seconds +
                 stats.load_seconds + stats.nn_seconds),
            100.0 * stats.nn_seconds /
                (stats.batch_prep_seconds + stats.extract_seconds +
                 stats.load_seconds + stats.nn_seconds),
            stats.bytes_transferred / 1e6);
      }
      std::printf("test accuracy %.3f\n",
                  trainer.Evaluate(dataset->split.test));
    });
  }
  if (rc != 0) return rc;

  // --- Telemetry artifacts (after all training output, so the training
  // lines above stay diffable against an untraced run). ---
  if (!trace_out.empty()) {
    telemetry::Tracer& tracer = telemetry::Tracer::Get();
    tracer.Stop();
    using telemetry::ClockDomain;
    std::printf(
        "trace stage sums (virtual): bp %.6fs  extract %.6fs  load %.6fs  "
        "nn %.6fs\n",
        tracer.SpanSeconds("trainer.bp", ClockDomain::kVirtual),
        tracer.SpanSeconds("trainer.extract", ClockDomain::kVirtual),
        tracer.SpanSeconds("trainer.load", ClockDomain::kVirtual),
        tracer.SpanSeconds("trainer.nn", ClockDomain::kVirtual));
    Status status = tracer.WriteChromeTrace(trace_out);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("trace written to %s (%zu events)\n", trace_out.c_str(),
                tracer.Snapshot().size());
  }
  if (!metrics_out.empty()) {
    const std::string json = telemetry::MetricsRegistry::Get().ToJson();
    Status lint = telemetry::JsonLint(json);
    if (!lint.ok()) {
      std::fprintf(stderr, "error: %s\n", lint.ToString().c_str());
      return 1;
    }
    std::ofstream out(metrics_out, std::ios::trunc);
    out << json;
    if (!out.good()) {
      std::fprintf(stderr, "error: cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty() || !metrics_out.empty()) {
    std::printf(
        "%s",
        telemetry::MetricsRegistry::Get().ToTable().ToAscii().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace gnndm

int main(int argc, char** argv) { return gnndm::Main(argc, argv); }
