// The traced run. It replays a workload through each layer's public calls
// (BatchSelector::SelectEpoch, NeighborSampler::Sample,
// TransferEngine::Gather/Cost, BatchSource::Next, GnnModel::Forward/
// Backward, SoftmaxCrossEntropy, Optimizer::Step) in the order Trainer
// and DistTrainer make them, with one span around each call. An untraced
// Trainer/DistTrainer epoch and Evaluate pass run before every traced
// epoch, so that trace.overhead compares the two on the same host state.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "batch/batch_selector.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "core/batch_source.h"
#include "core/costs.h"
#include "modes.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "report.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/sampled_subgraph.h"
#include "spans.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "transfer/feature_cache.h"
#include "transfer/transfer_engine.h"
#include "workloads.h"

namespace trainbench {

namespace {

using gnndm::Dataset;
using gnndm::SampledSubgraph;
using gnndm::Tensor;
using gnndm::VertexId;

constexpr uint32_t kEvalBatch = 1024;  // as Trainer/DistTrainer::Evaluate
constexpr const char* kCheckSpan = "check.validate";

// The spans a traced training epoch may contain, each one layer's public
// call. Reconciliation fails on any other name, so every span's self
// time is reported under some layer metric.
const std::set<std::string>& EpochLayerSpans() {
  static const std::set<std::string> names = {
      "batch.select",  "sampling.sample", "transfer.gather",
      "transfer.cost", "nn.forward",      "nn.loss",
      "nn.backward",   "nn.optimizer"};
  return names;
}

// Work done in one replayed epoch, counted at the calls the spans time.
struct EpochCounts {
  uint64_t batches = 0;
  uint64_t seeds = 0;
  uint64_t edges = 0;
  uint64_t gather_rows = 0;
  uint64_t rows_requested = 0;
  uint64_t rows_from_cache = 0;
  double gflop = 0.0;
  double loss_sum = 0.0;

  void Add(const EpochCounts& o) {
    batches += o.batches;
    seeds += o.seeds;
    edges += o.edges;
    gather_rows += o.gather_rows;
    rows_requested += o.rows_requested;
    rows_from_cache += o.rows_from_cache;
    gflop += o.gflop;
    loss_sum += o.loss_sum;
  }
};

class Replay {
 public:
  /// Builds the replay's own model, optimizer, transfer engine and, when
  /// the workload caches, one presample cache per worker (spans
  /// transfer.cache_build), as the trainers build theirs.
  Replay(const Workload& workload, const Dataset& dataset,
         const gnndm::PartitionResult& partition, SpanRecorder& recorder,
         Outcome& out)
      : workload_(workload),
        config_(workload.config),
        dataset_(dataset),
        rec_(recorder),
        out_(out),
        sampler_(config_.hops),
        model_(gnndm::MakeModel(config_.model,
                                ModelConfigFor(config_, dataset))),
        optimizer_(model_->Parameters(), config_.learning_rate, 0.9f,
                   0.999f, 1e-8f, config_.weight_decay),
        engine_(gnndm::MakeTransferEngine(config_.transfer, config_.device)),
        rng_(config_.seed) {
    workers_.resize(std::max<uint32_t>(1, workload.dist_workers));
    for (uint32_t p = 0; p < workers_.size(); ++p) {
      Worker& w = workers_[p];
      w.local_train = distributed() ? partition.Filter(dataset.split.train, p)
                                    : dataset.split.train;
      if (distributed()) w.rng = rng_.Fork();
      if (config_.cache_policy != "presample" || config_.cache_ratio <= 0.0 ||
          w.local_train.empty()) {
        continue;
      }
      // Presample batch counts and rng seeds as the trainers choose them.
      const auto per_epoch = static_cast<uint32_t>(
          (w.local_train.size() + config_.batch_size - 1) /
          config_.batch_size);
      const uint32_t presample =
          distributed() ? 8 : std::max<uint32_t>(8, 2 * per_epoch);
      gnndm::Rng presample_rng(distributed() ? config_.seed ^ (0xCAC4Eu + p)
                                             : config_.seed ^ 0xCAC4Eu);
      ScopedSpan span(rec_, "transfer.cache_build");
      w.cache = gnndm::FeatureCache::PreSampling(
          dataset.graph, w.local_train, sampler_, config_.batch_size,
          presample,
          static_cast<uint64_t>(config_.cache_ratio *
                                dataset.graph.num_vertices()),
          presample_rng);
      w.has_cache = true;
    }
  }

  bool distributed() const { return workload_.dist_workers > 1; }

  /// One training epoch under a root span "epoch".
  EpochCounts TrainEpoch() {
    EpochCounts counts;
    ScopedSpan root(rec_, "epoch");
    if (distributed()) {
      TrainDistEpoch(counts);
    } else {
      TrainSingleEpoch(counts);
    }
    ++epoch_;
    return counts;
  }

  /// The next epoch prepared by an AsyncBatchSource with one loader
  /// worker instead of inline, under a root span "async": the consumer's
  /// side of BatchSource::Next, then the same tail. Single-worker
  /// workloads only (core.loader_wait_s).
  void AsyncProbeEpoch() {
    ScopedSpan root(rec_, "async");
    EpochCounts counts;
    gnndm::BatchSourceOptions options;
    options.workers = 1;
    options.queue_depth = config_.async_queue_depth;
    options.seed = SourceSeed();
    std::unique_ptr<gnndm::BatchSource> source =
        gnndm::MakeBatchSource(dataset_.graph, dataset_.features, Select(),
                               &sampler_, options);
    for (int64_t b = 0;; ++b) {
      std::optional<gnndm::PreparedBatch> prepared;
      {
        ScopedSpan span(rec_, "core.next", b);
        prepared = source->Next();
      }
      if (!prepared) break;
      Check(prepared->subgraph, b);
      Consume(prepared->subgraph, prepared->input, prepared->seeds, b,
              SingleCache(), counts);
    }
    ++epoch_;
  }

  /// One validation pass, as Trainer::Evaluate makes it, under a root
  /// span "eval". Returns the accuracy.
  double EvalPass() {
    ScopedSpan root(rec_, "eval");
    const std::vector<VertexId>& val = dataset_.split.val;
    uint64_t correct = 0;
    std::vector<VertexId> seeds;
    Tensor input;
    for (size_t begin = 0; begin < val.size(); begin += kEvalBatch) {
      const auto batch = static_cast<int64_t>(begin / kEvalBatch);
      seeds.assign(val.begin() + static_cast<std::ptrdiff_t>(begin),
                   val.begin() + static_cast<std::ptrdiff_t>(std::min(
                                     val.size(), begin + kEvalBatch)));
      SampledSubgraph sg;
      {
        ScopedSpan span(rec_, "sampling.sample", batch);
        sg = sampler_.Sample(dataset_.graph, seeds, rng_);
      }
      {
        ScopedSpan span(rec_, "transfer.gather", batch);
        gnndm::TransferEngine::Gather(sg.input_vertices(), dataset_.features,
                                      input);
      }
      Check(sg, batch);
      const Tensor* logits = nullptr;
      {
        ScopedSpan span(rec_, "nn.forward", batch);
        logits = &model_->Forward(sg, input, /*train=*/false);
      }
      gnndm::ArgmaxRowsInto(*logits, preds_);
      for (size_t i = 0; i < seeds.size(); ++i) {
        if (preds_[i] == dataset_.labels[seeds[i]]) ++correct;
      }
    }
    return val.empty() ? 0.0
                       : static_cast<double>(correct) /
                             static_cast<double>(val.size());
  }

 private:
  struct Worker {
    std::vector<VertexId> local_train;
    gnndm::Rng rng{0};
    gnndm::FeatureCache cache;
    bool has_cache = false;
  };

  std::vector<std::vector<VertexId>> Select() {
    ScopedSpan span(rec_, "batch.select");
    return selector_.SelectEpoch(dataset_.split.train, config_.batch_size,
                                 rng_);
  }

  // Trainer's per-epoch batch-source seed.
  uint64_t SourceSeed() const { return config_.seed ^ (0xA51Cull + epoch_); }

  const gnndm::FeatureCache* SingleCache() const {
    return workers_[0].has_cache ? &workers_[0].cache : nullptr;
  }

  // What InlineBatchSource::Next does per batch (sample with the batch's
  // own rng, gather into a fresh tensor), then the consumer's tail.
  void TrainSingleEpoch(EpochCounts& counts) {
    const std::vector<std::vector<VertexId>> batches = Select();
    const uint64_t source_seed = SourceSeed();
    for (size_t b = 0; b < batches.size(); ++b) {
      gnndm::Rng rng(
          gnndm::BatchRngSeed(source_seed, static_cast<uint32_t>(b)));
      const auto batch = static_cast<int64_t>(b);
      SampledSubgraph sg;
      {
        ScopedSpan span(rec_, "sampling.sample", batch);
        sg = sampler_.Sample(dataset_.graph, batches[b], rng);
      }
      Tensor input;
      {
        ScopedSpan span(rec_, "transfer.gather", batch);
        gnndm::TransferEngine::Gather(sg.input_vertices(), dataset_.features,
                                      input);
      }
      Check(sg, batch);
      Consume(sg, input, batches[b], batch, SingleCache(), counts);
    }
  }

  // DistTrainer's round structure: every worker trains its next batch,
  // then the summed gradients are averaged and applied once.
  void TrainDistEpoch(EpochCounts& counts) {
    std::vector<std::vector<std::vector<VertexId>>> batches(workers_.size());
    size_t rounds = 0;
    {
      ScopedSpan span(rec_, "batch.select");
      for (size_t p = 0; p < workers_.size(); ++p) {
        if (workers_[p].local_train.empty()) continue;
        batches[p] = selector_.SelectEpoch(workers_[p].local_train,
                                           config_.batch_size,
                                           workers_[p].rng);
        rounds = std::max(rounds, batches[p].size());
      }
    }
    int64_t batch = 0;
    for (size_t round = 0; round < rounds; ++round) {
      uint32_t active = 0;
      for (size_t p = 0; p < workers_.size(); ++p) {
        if (round >= batches[p].size()) continue;
        Worker& w = workers_[p];
        const std::vector<VertexId>& seeds = batches[p][round];
        SampledSubgraph sg;
        {
          ScopedSpan span(rec_, "sampling.sample", batch);
          sg = sampler_.Sample(dataset_.graph, seeds, w.rng);
        }
        Tensor input;
        {
          ScopedSpan span(rec_, "transfer.gather", batch);
          gnndm::TransferEngine::Gather(sg.input_vertices(),
                                        dataset_.features, input);
        }
        Check(sg, batch);
        Consume(sg, input, seeds, batch, w.has_cache ? &w.cache : nullptr,
                counts);
        ++active;
        ++batch;
      }
      if (active == 0) continue;
      ScopedSpan span(rec_, "nn.optimizer", batch - 1);
      const float scale = 1.0f / static_cast<float>(active);
      for (gnndm::Parameter* param : model_->Parameters()) {
        gnndm::ScaleInPlace(param->grad, scale);
      }
      optimizer_.Step();
    }
  }

  // BatchConsumer's tail: transfer accounting, forward, loss, backward;
  // single-worker training then steps the optimizer per batch.
  void Consume(const SampledSubgraph& sg, const Tensor& input,
               const std::vector<VertexId>& seeds, int64_t batch,
               const gnndm::FeatureCache* cache, EpochCounts& counts) {
    gnndm::TransferStats transfer;
    {
      ScopedSpan span(rec_, "transfer.cost", batch);
      transfer = engine_->Cost(sg.input_vertices(), dataset_.features, cache);
    }
    const Tensor* logits = nullptr;
    {
      ScopedSpan span(rec_, "nn.forward", batch);
      logits = &model_->Forward(sg, input, /*train=*/true);
    }
    labels_.resize(seeds.size());
    for (size_t i = 0; i < seeds.size(); ++i) {
      labels_[i] = dataset_.labels[seeds[i]];
    }
    double loss = 0.0;
    {
      ScopedSpan span(rec_, "nn.loss", batch);
      loss = gnndm::SoftmaxCrossEntropy(*logits, labels_, d_logits_);
    }
    {
      ScopedSpan span(rec_, "nn.backward", batch);
      model_->Backward(sg, d_logits_);
    }
    if (!distributed()) {
      ScopedSpan span(rec_, "nn.optimizer", batch);
      optimizer_.Step();
    }
    ++counts.batches;
    counts.seeds += seeds.size();
    counts.edges += sg.TotalEdges();
    counts.gather_rows += sg.input_vertices().size();
    counts.rows_requested += transfer.rows_requested;
    counts.rows_from_cache += transfer.rows_from_cache;
    counts.gflop += gnndm::EstimateGnnFlops(
                        sg, dataset_.features.dim(), config_.hidden_dim,
                        dataset_.num_classes, config_.num_mlp_layers) /
                    1e9;
    counts.loss_sum += loss * static_cast<double>(seeds.size());
  }

  // SampledSubgraph::Validate on every traced batch. Its span is left out
  // of the epoch wall the layers reconcile against.
  void Check(const SampledSubgraph& sg, int64_t batch) {
    ScopedSpan span(rec_, kCheckSpan, batch);
    gnndm::Status status = sg.Validate(dataset_.graph.num_vertices());
    if (!status.ok() && ++invalid_batches_ == 1) {
      out_.Fail("SampledSubgraph::Validate: " + status.ToString());
    }
  }

  const Workload& workload_;
  const gnndm::TrainerConfig& config_;
  const Dataset& dataset_;
  SpanRecorder& rec_;
  Outcome& out_;
  gnndm::NeighborSampler sampler_;
  std::unique_ptr<gnndm::GnnModel> model_;
  gnndm::Adam optimizer_;
  std::unique_ptr<gnndm::TransferEngine> engine_;
  gnndm::RandomBatchSelector selector_;
  gnndm::Rng rng_;
  std::vector<Worker> workers_;
  uint64_t epoch_ = 0;
  uint64_t invalid_batches_ = 0;
  Tensor d_logits_;
  std::vector<int32_t> labels_;
  std::vector<int32_t> preds_;
};

// Forward + backward busy seconds over the same batches at one compute
// thread and at two (medians of alternating repetitions), on a model of
// the workload's shape that is never stepped. Two is the most busy
// threads a workload may use.
double MeasureThreadSpeedup(const Workload& workload, const Dataset& dataset) {
  constexpr size_t kBatches = 8;
  constexpr int kRepetitions = 6;
  const gnndm::TrainerConfig& config = workload.config;
  std::unique_ptr<gnndm::GnnModel> model =
      gnndm::MakeModel(config.model, ModelConfigFor(config, dataset));
  gnndm::NeighborSampler sampler(config.hops);
  gnndm::Rng rng(config.seed ^ 0x5EEDull);
  std::vector<std::vector<VertexId>> batches =
      gnndm::RandomBatchSelector().SelectEpoch(dataset.split.train,
                                               config.batch_size, rng);
  batches.resize(std::min(batches.size(), kBatches));
  struct Item {
    SampledSubgraph sg;
    Tensor input;
    std::vector<int32_t> labels;
  };
  std::vector<Item> items(batches.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    items[b].sg = sampler.Sample(dataset.graph, batches[b], rng);
    gnndm::TransferEngine::Gather(items[b].sg.input_vertices(),
                                  dataset.features, items[b].input);
    for (VertexId v : batches[b]) items[b].labels.push_back(dataset.labels[v]);
  }
  Tensor d_logits;
  auto busy = [&](size_t threads) {
    gnndm::SetComputeThreads(threads);
    double seconds = 0.0;
    for (Item& item : items) {
      gnndm::WallTimer timer;
      const Tensor& logits = model->Forward(item.sg, item.input, true);
      seconds += timer.Seconds();
      gnndm::SoftmaxCrossEntropy(logits, item.labels, d_logits);
      timer.Restart();
      model->Backward(item.sg, d_logits);
      seconds += timer.Seconds();
    }
    return seconds;
  };
  busy(2);  // warm-up
  std::vector<double> one, two;
  for (int r = 0; r < kRepetitions; ++r) {
    // Alternate which thread count goes first.
    if (r % 2 == 0) one.push_back(busy(1));
    two.push_back(busy(2));
    if (r % 2 == 1) one.push_back(busy(1));
  }
  gnndm::SetComputeThreads(std::max<size_t>(1, config.num_threads));
  return Median(one) / Median(two);
}

// Traced pairs per run at the least, whatever --seconds allows.
constexpr uint32_t kMinPairs = 3;

// Walls of the root spans named `root`, in order, with the time spent in
// output checks taken out.
std::vector<double> TracedRootWalls(const SpanRecorder& rec,
                                    const std::string& root) {
  const auto& spans = rec.spans();
  std::vector<double> check_s(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) == kCheckSpan) {
      check_s[static_cast<size_t>(rec.RootOf(static_cast<int64_t>(i)))] +=
          spans[i].end - spans[i].start;
    }
  }
  std::vector<double> walls;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0 && spans[i].name == root) {
      walls.push_back(spans[i].end - spans[i].start - check_s[i]);
    }
  }
  return walls;
}

}  // namespace

Outcome RunTraced(const Workload& workload, const std::string& input_path,
                  double seconds, const std::string& trace_path,
                  const std::string& meta) {
  Outcome out;
  gnndm::WallTimer run_timer;
  SpanRecorder rec;
  std::unique_ptr<Session> session;
  std::unique_ptr<Replay> replay;
  {
    ScopedSpan root(rec, "setup");
    double setup = 0.0;
    std::string check;
    session = Session::Open(workload, input_path, &rec, setup, check);
    if (!check.empty()) out.Fail(check);
    if (session == nullptr) return out;
    replay = std::make_unique<Replay>(workload, session->dataset(),
                                      session->partition(), rec, out);
  }
  const Dataset& dataset = session->dataset();

  // Warm-up, unrecorded: the trainer's warm-up epochs and one replayed
  // epoch and eval pass.
  rec.set_paused(true);
  for (uint32_t e = 0; e < kWarmupEpochs; ++e) {
    out.Attempt(std::isfinite(session->TrainEpoch()));
  }
  replay->TrainEpoch();
  replay->EvalPass();
  rec.set_paused(false);

  std::vector<double> untraced_s, untraced_eval_s;
  EpochCounts counts;
  double remote_feature_bytes = 0.0, remote_structure_bytes = 0.0;
  double worker_imbalance = 0.0;
  // A pair is one untraced and one traced epoch, each with an eval pass.
  // Pairs repeat while the next one, judged by the mean length of those
  // before it, still ends within `seconds` of the run's start.
  const double budget = seconds - run_timer.Seconds();
  gnndm::WallTimer pairs_timer;
  uint32_t pairs = 0;
  for (; pairs < kMinPairs || pairs_timer.Seconds() * (pairs + 1) <=
                                  budget * pairs;
       ++pairs) {
    gnndm::WallTimer timer;
    const double loss = session->TrainEpoch();
    untraced_s.push_back(timer.Seconds());
    out.Attempt(std::isfinite(loss));
    timer.Restart();
    const double trainer_acc = session->EvaluateVal();
    untraced_eval_s.push_back(timer.Seconds());
    out.Attempt(std::isfinite(trainer_acc) && trainer_acc >= 0.0 &&
                trainer_acc <= 1.0);
    if (replay->distributed()) {
      uint64_t max_edges = 0, sum_edges = 0;
      const auto& workers = session->last_dist_stats().workers;
      for (const gnndm::WorkerStats& w : workers) {
        remote_feature_bytes += static_cast<double>(w.remote_feature_bytes);
        remote_structure_bytes +=
            static_cast<double>(w.remote_structure_bytes);
        max_edges = std::max(max_edges, w.sampled_edges);
        sum_edges += w.sampled_edges;
      }
      if (sum_edges > 0) {
        worker_imbalance += static_cast<double>(max_edges) *
                            static_cast<double>(workers.size()) /
                            static_cast<double>(sum_edges);
      }
    }
    const EpochCounts epoch = replay->TrainEpoch();
    out.Attempt(std::isfinite(epoch.loss_sum));
    if (epoch.batches != session->last_epoch_batches() ||
        epoch.seeds != dataset.split.train.size()) {
      out.Fail("replayed epoch has " + std::to_string(epoch.batches) +
               " batches / " + std::to_string(epoch.seeds) +
               " seeds; the trainer's has " +
               std::to_string(session->last_epoch_batches()) + " / " +
               std::to_string(dataset.split.train.size()));
    }
    counts.Add(epoch);
    if (!replay->distributed()) replay->AsyncProbeEpoch();
    const double acc = replay->EvalPass();
    out.Attempt(std::isfinite(acc) && acc >= 0.0 && acc <= 1.0);
  }
  const double thread_speedup = MeasureThreadSpeedup(workload, dataset);

  // Per-layer self times, per epoch (training) or per pass (eval).
  const RootTotals setup = SumUnderRoots(rec, "setup");
  const RootTotals epochs = SumUnderRoots(rec, "epoch");
  const RootTotals async = SumUnderRoots(rec, "async");
  const RootTotals eval = SumUnderRoots(rec, "eval");
  const double n = static_cast<double>(epochs.roots);
  const double passes = static_cast<double>(std::max<int64_t>(1, eval.roots));
  auto per_epoch = [&](const char* name) { return epochs.Self(name) / n; };
  const double sample_s = epochs.Self("sampling.sample");
  const gnndm::PartitionResult& partition = session->partition();
  double edge_cut = 0.0, partition_imbalance = 0.0;
  if (replay->distributed()) {
    edge_cut = static_cast<double>(partition.EdgeCut(dataset.graph));
    std::vector<double> owned(partition.num_parts, 0.0);
    for (uint32_t part : partition.assignment) owned[part] += 1.0;
    partition_imbalance =
        *std::max_element(owned.begin(), owned.end()) *
        static_cast<double>(owned.size()) /
        static_cast<double>(partition.assignment.size());
  }

  // Reconciliation: every span under a traced epoch is a layer call or a
  // check, and the layers' self times plus the epoch's own (unaccounted)
  // time add up to the epoch wall with the checks left out.
  double layer_self = 0.0, check_s = 0.0;
  std::string layers_json;
  for (const auto& [name, self] : epochs.self_by_name) {
    if (name == kCheckSpan) {
      check_s += self;
    } else if (EpochLayerSpans().count(name) != 0) {
      layer_self += self;
      layers_json += (layers_json.empty() ? "" : ", ") + JsonString(name) +
                     ": " + JsonNumber(self / n);
    } else {
      out.Fail("span " + name + " in a traced epoch maps to no layer");
    }
  }
  const double traced_wall = (epochs.wall - check_s) / n;
  const double unaccounted = epochs.root_self / n;
  const double residual = traced_wall - (layer_self / n + unaccounted);
  if (std::fabs(residual) > 1e-9 * std::max(1.0, traced_wall)) {
    out.Fail("layer self times do not reconcile with the traced epoch wall");
  }
  const std::vector<double> traced_s = TracedRootWalls(rec, "epoch");
  const double overhead = Median(traced_s) / Median(untraced_s) - 1.0;

  const double row_mb =
      static_cast<double>(dataset.features.BytesPerVertex()) / 1e6;
  out.Add("graph.load_s", setup.Self("graph.load"), "s");
  out.Add("partition.partition_s", setup.Self("partition.partition"), "s");
  out.Add("partition.edge_cut", edge_cut, "edges");
  out.Add("partition.imbalance", partition_imbalance, "ratio");
  out.Add("transfer.cache_build_s", setup.Self("transfer.cache_build"), "s");
  out.Add("batch.select_s", per_epoch("batch.select"), "s");
  out.Add("sampling.sample_s", sample_s / n, "s");
  out.Add("sampling.edges", static_cast<double>(counts.edges) / n, "edges");
  out.Add("sampling.edges_per_s",
          sample_s > 0.0 ? static_cast<double>(counts.edges) / sample_s : 0.0,
          "edges/s");
  out.Add("sampling.eval_sample_s", eval.Self("sampling.sample") / passes,
          "s/pass");
  out.Add("transfer.gather_s", per_epoch("transfer.gather"), "s");
  out.Add("transfer.gather_mb",
          static_cast<double>(counts.gather_rows) * row_mb / n, "MB");
  out.Add("transfer.cost_s", per_epoch("transfer.cost"), "s");
  out.Add("transfer.cache_hit_ratio",
          counts.rows_requested > 0
              ? static_cast<double>(counts.rows_from_cache) /
                    static_cast<double>(counts.rows_requested)
              : 0.0,
          "fraction");
  out.Add("core.loader_wait_s",
          async.Self("core.next") / static_cast<double>(
                                        std::max<int64_t>(1, async.roots)),
          "s");
  out.Add("nn.forward_s", per_epoch("nn.forward"), "s");
  out.Add("nn.backward_s", per_epoch("nn.backward"), "s");
  out.Add("nn.loss_s", per_epoch("nn.loss"), "s");
  out.Add("nn.optimizer_s", per_epoch("nn.optimizer"), "s");
  out.Add("nn.eval_forward_s", eval.Self("nn.forward") / passes, "s/pass");
  out.Add("nn.gflop", counts.gflop / n, "GFLOP");
  out.Add("nn.thread_speedup", thread_speedup, "ratio");
  out.Add("dist.remote_feature_mb", remote_feature_bytes / 1e6 / pairs, "MB");
  out.Add("dist.remote_structure_mb", remote_structure_bytes / 1e6 / pairs,
          "MB");
  out.Add("dist.worker_imbalance", worker_imbalance / pairs, "ratio");
  out.Add("trace.unaccounted_s", unaccounted, "s");
  out.Add("trace.overhead", overhead, "ratio");

  out.Record("traced_epochs", std::to_string(epochs.roots));
  out.Record("async_probe_epochs", std::to_string(async.roots));
  out.Record("eval_passes", std::to_string(eval.roots));
  out.Record("batches_per_epoch", JsonNumber(counts.batches / n));
  out.Record("cache_rows_requested_per_epoch",
             JsonNumber(static_cast<double>(counts.rows_requested) / n));
  out.Record("async_probe_epoch_s",
             JsonNumber(async.wall / static_cast<double>(
                                         std::max<int64_t>(1, async.roots))));
  out.Record("reconcile",
             "{\"traced_epoch_wall_s\": " + JsonNumber(traced_wall) +
                 ", \"layers_s\": {" + layers_json +
                 "}, \"unaccounted_s\": " + JsonNumber(unaccounted) +
                 ", \"checks_s\": " + JsonNumber(check_s / n) +
                 ", \"residual_s\": " + JsonNumber(residual) + "}");
  out.Record("untraced_epoch_s", TimingJson(untraced_s));
  out.Record("traced_epoch_s", TimingJson(traced_s));
  out.Record("untraced_eval_s", TimingJson(untraced_eval_s));
  out.Record("traced_eval_s", TimingJson(TracedRootWalls(rec, "eval")));
  out.Record("spans", std::to_string(rec.spans().size()));

  // The trace artifact, checked by the same RFC 8259 checker the
  // library's own JSON writers use.
  const std::string json = rec.ChromeTraceJson(meta);
  if (gnndm::Status lint = gnndm::telemetry::JsonLint(json); !lint.ok()) {
    out.Fail("trace JSON is malformed: " + lint.ToString());
  }
  std::ofstream file(trace_path, std::ios::trunc);
  file << json;
  file.close();
  if (!file) out.Fail("cannot write the trace to " + trace_path);
  out.Record("trace", JsonString(trace_path));
  return out;
}

}  // namespace trainbench
