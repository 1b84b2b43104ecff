#include "workloads.h"

#include <utility>

#include "common/parallel_for.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "partition/metis_partitioner.h"

namespace trainbench {

using gnndm::HopSpec;

namespace {

// Input shape shared by every workload (only the feature width varies).
constexpr gnndm::VertexId kVertices = 100000;
constexpr uint32_t kClasses = 16;
constexpr double kAvgDegree = 19.0;
constexpr double kInterFraction = 0.3;

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;
  {
    // NN forward/backward dominate: wide GraphSAGE, small fanout, batches
    // prepared inline on one compute thread. README.md ("Host noise") has
    // the measurements behind one thread.
    Workload w;
    w.name = "compute-bound";
    w.feature_dim = 128;
    w.config.model = "graphsage";
    w.config.hidden_dim = 128;
    w.config.hops = {HopSpec::Fanout(10), HopSpec::Fanout(5)};
    w.config.loader_workers = 0;
    w.config.num_threads = 1;
    w.config.transfer = "extract-load";
    w.target_val_acc = 0.88;
    out.push_back(w);
  }
  {
    // Four simulated workers back to back on one thread over a Metis-VET
    // partition, the paper's Table 8 fanout-rate hybrid sampler, a 20%
    // per-worker presample cache and zero-copy transfer.
    Workload w;
    w.name = "dist-hybrid";
    w.feature_dim = 32;
    w.config.model = "gcn";
    w.config.hidden_dim = 32;
    w.config.hops = {HopSpec::Hybrid(16, 0.3, 32), HopSpec::Hybrid(16, 0.3, 32)};
    w.config.loader_workers = 0;
    w.config.num_threads = 1;
    w.config.transfer = "zero-copy";
    w.config.cache_policy = "presample";
    w.config.cache_ratio = 0.2;
    w.dist_workers = 4;
    w.target_val_acc = 0.35;
    out.push_back(w);
  }
  for (Workload& w : out) {
    w.config.batch_size = 512;
    w.config.num_conv_layers = static_cast<uint32_t>(w.config.hops.size());
  }
  return out;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = MakeWorkloads();
  return workloads;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

gnndm::Dataset GenerateInput(uint32_t feature_dim, uint64_t seed) {
  gnndm::CommunityGraph graph = gnndm::GeneratePowerLawCommunity(
      kVertices, kClasses, kAvgDegree * (1.0 - kInterFraction),
      kAvgDegree * kInterFraction, seed);
  gnndm::DatasetOptions options;
  options.feature_dim = feature_dim;
  options.labeled_fraction = 0.4;
  options.feature_signal = 0.5;
  options.label_noise = 0.09;
  options.outlier_fraction = 0.4;
  gnndm::Dataset dataset = gnndm::MakeCommunityDataset(
      "trainbench", std::move(graph), options, seed);
  dataset.power_law = true;
  return dataset;
}

gnndm::ModelConfig ModelConfigFor(const gnndm::TrainerConfig& config,
                                  const gnndm::Dataset& dataset) {
  gnndm::ModelConfig model;
  model.in_dim = dataset.features.dim();
  model.hidden_dim = config.hidden_dim;
  model.num_classes = dataset.num_classes;
  model.num_conv_layers = config.num_conv_layers;
  model.num_mlp_layers = config.num_mlp_layers;
  model.dropout = config.dropout;
  model.seed = config.seed ^ 0x40DE1u;
  return model;
}

std::unique_ptr<Session> Session::Open(const Workload& workload,
                                       const std::string& path,
                                       SpanRecorder* recorder,
                                       double& setup_seconds,
                                       std::string& check) {
  auto session = std::make_unique<Session>();
  auto begin = [&](const char* name) {
    return recorder != nullptr ? recorder->Begin(name) : -1;
  };
  auto end = [&](int64_t id) {
    if (recorder != nullptr) recorder->End(id);
  };

  gnndm::WallTimer timer;
  const int64_t load_span = begin("graph.load");
  gnndm::Result<gnndm::Dataset> loaded = gnndm::LoadDatasetFile(path);
  end(load_span);
  setup_seconds = timer.Seconds();
  if (!loaded.ok()) {
    check = "LoadDatasetFile: " + loaded.status().ToString();
    return nullptr;
  }
  session->dataset_ =
      std::make_unique<gnndm::Dataset>(std::move(loaded).value());
  const gnndm::Dataset& dataset = *session->dataset_;
  if (gnndm::Status s = dataset.graph.Validate(); !s.ok() && check.empty()) {
    check = "CsrGraph::Validate: " + s.ToString();
  }

  if (workload.dist_workers > 1) {
    // Kernel threading is process-wide; the dist trainer leaves it alone,
    // so apply the workload's count before partitioning, as a user would.
    timer.Restart();
    gnndm::SetComputeThreads(workload.config.num_threads);
    const int64_t partition_span = begin("partition.partition");
    session->partition_ =
        gnndm::MetisPartitioner(gnndm::MetisMode::kVET)
            .Partition({dataset.graph, dataset.split},
                       workload.dist_workers, workload.config.seed);
    end(partition_span);
    setup_seconds += timer.Seconds();
    if (gnndm::Status s =
            session->partition_.Validate(dataset.graph.num_vertices());
        !s.ok() && check.empty()) {
      check = "PartitionResult::Validate: " + s.ToString();
    }
  }

  timer.Restart();
  const int64_t build_span = begin("core.trainer_build");
  if (workload.dist_workers > 1) {
    session->dist_ = std::make_unique<gnndm::DistTrainer>(
        dataset, session->partition_, workload.config);
  } else {
    session->single_ =
        std::make_unique<gnndm::Trainer>(dataset, workload.config);
  }
  end(build_span);
  setup_seconds += timer.Seconds();
  return session;
}

double Session::TrainEpoch() {
  if (single_ != nullptr) {
    gnndm::EpochStats stats = single_->TrainEpoch();
    last_batches_ = stats.attribution.batches;
    return stats.train_loss;
  }
  last_dist_ = dist_->TrainEpoch();
  last_batches_ = 0;
  for (const gnndm::WorkerStats& w : last_dist_.workers) {
    last_batches_ += w.batches;
  }
  return last_dist_.train_loss;
}

double Session::EvaluateVal() {
  return single_ != nullptr ? single_->Evaluate(dataset_->split.val)
                            : dist_->Evaluate(dataset_->split.val);
}

}  // namespace trainbench
