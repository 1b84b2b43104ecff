#include "core/trainer.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "batch/batch_schedule.h"
#include "batch/batch_selector.h"
#include "common/logging.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/attribution.h"
#include "core/batch_consumer.h"
#include "core/batch_source.h"
#include "core/convergence.h"
#include "core/metrics.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "graph/stats.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "partition/metis_partitioner.h"
#include "transfer/feature_cache.h"
#include "transfer/pipeline.h"
#include "transfer/transfer_engine.h"

namespace gnndm {

TrainerBase::TrainerBase(const Dataset& dataset, const TrainerConfig& config)
    : dataset_(dataset),
      config_(config),
      rng_(config.seed),
      sampler_(config.hops) {
  // Kernel threading is process-wide (the pool is shared by design);
  // apply it here so trainer construction is the one place the knob
  // takes effect. 0 leaves the current setting untouched.
  if (config.num_threads > 0) SetComputeThreads(config.num_threads);
  ModelConfig model_config;
  model_config.in_dim = dataset.features.dim();
  model_config.hidden_dim = config.hidden_dim;
  model_config.num_classes = dataset.num_classes;
  model_config.num_conv_layers = config.num_conv_layers;
  model_config.num_mlp_layers = config.num_mlp_layers;
  model_config.dropout = config.dropout;
  model_config.seed = config.seed ^ 0x40DE1u;
  model_ = MakeModel(config.model, model_config);
  GNNDM_CHECK(model_ != nullptr);
  GNNDM_CHECK(model_->num_hops() == 0 ||
              model_->num_hops() == sampler_.num_layers());
  optimizer_ = std::make_unique<Adam>(
      model_->Parameters(), config.learning_rate, /*beta1=*/0.9f,
      /*beta2=*/0.999f, /*epsilon=*/1e-8f, config.weight_decay);
  transfer_ = MakeTransferEngine(config.transfer, config.device);
  GNNDM_CHECK(transfer_ != nullptr);
  consumer_ = std::make_unique<BatchConsumer>(
      dataset_, config.device, *transfer_, *model_, config.hidden_dim,
      config.num_conv_layers, config.num_mlp_layers);
}

FeatureCache TrainerBase::BuildCache(const std::vector<VertexId>& train,
                                     uint32_t presample_batches,
                                     uint64_t presample_seed) const {
  if (config_.cache_policy == "none" || config_.cache_ratio <= 0.0) return {};
  const auto capacity = static_cast<uint64_t>(
      config_.cache_ratio * dataset_.graph.num_vertices());
  if (config_.cache_policy == "degree") {
    return FeatureCache::DegreeBased(dataset_.graph, capacity);
  }
  if (config_.cache_policy == "presample") {
    Rng presample_rng(presample_seed);
    return FeatureCache::PreSampling(dataset_.graph, train, sampler_,
                                     config_.batch_size, presample_batches,
                                     capacity, presample_rng);
  }
  GNNDM_LOG(Warning) << "unknown cache policy '" << config_.cache_policy
                     << "', running uncached";
  return {};
}

std::unique_ptr<BatchSource> TrainerBase::EpochSource(
    std::vector<std::vector<VertexId>> batches) const {
  // The per-epoch seed (not the shared rng_) drives all batch sampling,
  // so the delivered stream is byte-identical whether batches are
  // prepared inline or by N workers at any prefetch depth — the
  // pluggable data plane's contract.
  BatchSourceOptions options;
  options.workers = config_.loader_workers;
  options.queue_depth = config_.async_queue_depth;
  options.seed = config_.seed ^ (0xA51Cull + epoch_);
  // Only an engine that extracts stages the rows, on the producers; under
  // the others the first layer reads them in place.
  options.stage_input = transfer_->extracts();
  return MakeBatchSource(dataset_.graph, dataset_.features,
                         std::move(batches),
                         model_->num_hops() > 0 ? &sampler_ : nullptr,
                         options);
}

EpochAttribution TrainerBase::FinishEpoch(
    const std::vector<BatchAttribution>& batches, double epoch_seconds) {
  EpochAttribution attribution = AttributeEpoch(
      epoch_, batches, epoch_seconds, config_.loader_workers);
  last_epoch_batches_ = batches;
  attribution_history_.push_back(attribution);
  PublishAttributionMetrics(attribution);
  total_seconds_ += epoch_seconds;
  ++epoch_;
  return attribution;
}

void TrainerBase::ClosePipelinedEpoch(
    const std::vector<StageTimes>& stage_times,
    const std::vector<BatchAttribution>& batches, EpochStats& stats) {
  PipelineResult pipeline = SimulatePipeline(stage_times, config_.pipeline);
  stats.epoch_seconds = pipeline.total_seconds;
  stats.batch_prep_seconds = pipeline.bp_busy;
  stats.nn_seconds = pipeline.nn_busy;
  // Replay the simulated schedule as virtual-clock spans, offset by the
  // cumulative clock so consecutive epochs concatenate on the timeline.
  // Durations are the exact StageTimes doubles accumulated into stats
  // above, so per-stage span sums reconcile bit-for-bit with EpochStats.
  if (telemetry::Enabled() && telemetry::Tracer::Get().active()) {
    telemetry::Tracer& tracer = telemetry::Tracer::Get();
    const double origin = total_seconds_;
    for (size_t i = 0; i < stage_times.size(); ++i) {
      const StageSchedule& slot = pipeline.schedule[i];
      const StageTimes& t = stage_times[i];
      const auto b = static_cast<int64_t>(i);
      tracer.AddVirtualSpan("trainer.bp", origin + slot.bp_begin,
                            t.batch_prep, telemetry::kLaneBp, b);
      tracer.AddVirtualSpan("trainer.extract", origin + slot.dt_begin,
                            t.extract, telemetry::kLaneDt, b);
      tracer.AddVirtualSpan("trainer.load",
                            origin + slot.dt_begin + t.extract, t.load,
                            telemetry::kLaneDt, b);
      tracer.AddVirtualSpan("trainer.nn", origin + slot.nn_begin,
                            t.nn_compute, telemetry::kLaneNn, b);
    }
  }
  stats.attribution = FinishEpoch(batches, stats.epoch_seconds);
}

const ConvergenceTracker& TrainerBase::TrainToConvergence(uint32_t max_epochs,
                                                          uint32_t patience) {
  for (uint32_t e = 0; e < max_epochs; ++e) {
    const uint32_t epoch = epoch_;
    const double train_loss = RunEpoch();
    const double val_acc = Evaluate(dataset_.split.val);
    tracker_.Record(epoch, total_seconds_, val_acc, train_loss);
    if (tracker_.Converged(patience)) break;
  }
  return tracker_;
}

double TrainerBase::Evaluate(const std::vector<VertexId>& vertices) {
  return EvaluateDetailed(vertices).Accuracy();
}

ClassificationMetrics TrainerBase::EvaluateDetailed(
    const std::vector<VertexId>& vertices) {
  ClassificationMetrics metrics(dataset_.num_classes);
  consumer_->Evaluate(vertices, model_->num_hops() > 0 ? &sampler_ : nullptr,
                      rng_, metrics);
  return metrics;
}

Trainer::Trainer(const Dataset& dataset, const TrainerConfig& config)
    : TrainerBase(dataset, config) {
  if (config.batch_selector == "cluster") {
    selector_ = std::make_unique<ClusterBatchSelector>(MetisCluster(
        dataset.graph, config.cluster_count, config.seed ^ 0xC1u));
  } else {
    selector_ = std::make_unique<RandomBatchSelector>();
  }

  if (config.adaptive_batch) {
    schedule_ = std::make_unique<AdaptiveBatchSchedule>(
        config.adaptive_initial, config.adaptive_max, config.adaptive_growth,
        config.adaptive_epochs_per_step);
  } else {
    schedule_ = std::make_unique<FixedBatchSchedule>(config.batch_size);
  }

  // Pre-sample roughly two epochs worth of batches (GNNLab runs a short
  // profiling phase before training).
  const auto batches_per_epoch = static_cast<uint32_t>(
      (dataset.split.train.size() + config.batch_size - 1) /
      std::max<uint32_t>(1, config.batch_size));
  cache_ = BuildCache(dataset.split.train,
                      std::max<uint32_t>(8, 2 * batches_per_epoch),
                      config.seed ^ 0xCAC4Eu);
}

StageTimes Trainer::ConsumeTrainingBatch(const PreparedBatch& batch,
                                         EpochStats& stats,
                                         BatchAttribution& attrib) {
  ConsumeOutcome out = consumer_->Consume(
      batch, cache_.capacity_rows() > 0 ? &cache_ : nullptr, &attrib);
  {
    TRACE_SPAN("trainer.optimizer", batch.index, &attrib.wall_optimizer);
    optimizer_->Step();
  }
  stats.involved_vertices += out.involved_vertices;
  stats.involved_edges += out.involved_edges;
  stats.extract_seconds += out.transfer.extract_seconds;
  stats.load_seconds += out.transfer.transfer_seconds;
  stats.bytes_transferred += out.transfer.bytes_moved;
  stats.rows_from_cache += out.transfer.rows_from_cache;
  stats.rows_requested += out.transfer.rows_requested;
  stats.train_loss += out.loss_sum;
  return out.times;
}

EpochStats Trainer::TrainEpoch() {
  TRACE_SPAN("trainer.epoch");
  EpochStats stats;
  stats.epoch = epoch_;
  stats.batch_size = schedule_->BatchSizeForEpoch(epoch_);
  auto batches = selector_->SelectEpoch(dataset_.split.train,
                                        stats.batch_size, rng_);
  std::vector<StageTimes> stage_times;
  stage_times.reserve(batches.size());
  std::vector<BatchAttribution> batch_attribs;
  batch_attribs.reserve(batches.size());
  std::unique_ptr<BatchSource> source = EpochSource(std::move(batches));
  while (auto prepared = source->Next()) {
    BatchAttribution attrib;
    stage_times.push_back(ConsumeTrainingBatch(*prepared, stats, attrib));
    batch_attribs.push_back(attrib);
  }
  if (!dataset_.split.train.empty()) {
    stats.train_loss /= static_cast<double>(dataset_.split.train.size());
  }
  ClosePipelinedEpoch(stage_times, batch_attribs, stats);
  return stats;
}

std::pair<double, double> Trainer::EvaluateByDegree(
    const std::vector<VertexId>& vertices) {
  DegreeClasses classes = SplitByDegree(dataset_.graph, vertices);
  return {Evaluate(classes.low), Evaluate(classes.high)};
}

}  // namespace gnndm
