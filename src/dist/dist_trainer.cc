#include "dist/dist_trainer.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "batch/batch_selector.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/telemetry_names.h"
#include "core/attribution.h"
#include "core/batch_consumer.h"
#include "core/batch_source.h"
#include "core/trainer.h"
#include "dist/network_model.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "nn/parameter.h"
#include "partition/partitioner.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "transfer/feature_cache.h"
#include "transfer/pipeline.h"
#include "transfer/transfer_engine.h"

namespace gnndm {

DistTrainer::DistTrainer(const Dataset& dataset,
                         const PartitionResult& partition,
                         const TrainerConfig& config,
                         const NetworkModel& network)
    : TrainerBase(dataset, config),
      partition_(partition),
      network_(network) {
  GNNDM_CHECK(partition_.assignment.size() == dataset.graph.num_vertices());
  workers_.resize(partition_.num_parts);
  for (uint32_t p = 0; p < partition_.num_parts; ++p) {
    Worker& w = workers_[p];
    w.local_train = partition_.Filter(dataset.split.train, p);
    w.rng = rng_.Fork();
    // Per-worker GPU feature cache, sized by the global ratio and
    // populated from this worker's own access pattern (SALIENT++ style).
    if (!w.local_train.empty()) {
      w.cache = BuildCache(w.local_train, /*presample_batches=*/8,
                           config.seed ^ (0xCAC4Eu + p));
    }
  }
}

double DistTrainer::RunWorkerBatch(uint32_t worker,
                                   const PreparedBatch& batch,
                                   DistEpochStats& stats, double& loss_sum,
                                   std::vector<BatchAttribution>& attribs) {
  const Worker& w = workers_[worker];
  WorkerStats& ledger = stats.workers[worker];
  const SampledSubgraph& sg = batch.subgraph;
  ledger.sampled_edges += sg.TotalEdges();
  ++ledger.batches;

  // Remote traffic: structures for remote expansions, features for
  // remote input vertices; halo vertices are local (Metis and hash
  // partitions have no halo). `contacted` flags each peer read from.
  std::vector<uint8_t> contacted(partition_.num_parts, 0);
  uint32_t peers = 0;
  auto remote = [&](VertexId v) {
    if (partition_.IsLocal(v, worker)) return false;
    const uint32_t owner = partition_.assignment[v];
    if (!contacted[owner]) {
      contacted[owner] = 1;
      ++peers;
    }
    return true;
  };
  uint64_t structure_bytes = 0;
  for (uint32_t l = 0; l < sg.num_layers(); ++l) {
    const SampleLayer& layer = sg.layers[l];
    const std::vector<VertexId>& dst_ids = sg.node_ids[l + 1];
    for (uint32_t i = 0; i < layer.num_dst; ++i) {
      if (remote(dst_ids[i])) {
        structure_bytes +=
            8ull * (layer.offsets[i + 1] - layer.offsets[i]);
      }
    }
  }
  uint64_t feature_bytes = 0;
  // P3's hybrid parallelism pushes layer-1 *partial activations*
  // (hidden_dim floats) instead of raw feature rows (feature_dim
  // floats), a win exactly when hidden << features — the trade P3 makes
  // with its hash partitioning.
  const uint64_t row_bytes =
      config_.p3_feature_parallel
          ? std::min<uint64_t>(dataset_.features.BytesPerVertex(),
                               config_.hidden_dim * sizeof(float))
          : dataset_.features.BytesPerVertex();
  for (VertexId v : sg.input_vertices()) {
    if (remote(v)) feature_bytes += row_bytes;
  }
  ledger.remote_structure_bytes += structure_bytes;
  ledger.remote_feature_bytes += feature_bytes;
  if (telemetry::Enabled()) {
    telemetry::GetCounter(telemetry_names::kDistStructureBytes)
        .Add(structure_bytes);
    telemetry::GetCounter(telemetry_names::kDistFeatureBytes)
        .Add(feature_bytes);
    telemetry::GetCounter(telemetry_names::kDistPeerContacts)
        .Add(peers);
  }
  const double network_seconds =
      network_.Seconds(structure_bytes + feature_bytes, peers);

  // Shared pipeline tail: host->device transfer (through the worker's
  // GPU cache, if configured) + NN forward/backward. Gradients accumulate
  // into the shared model; synchronous data parallelism averages them at
  // the round barrier, so no optimizer step here.
  BatchAttribution attrib;
  ConsumeOutcome out = consumer_->Consume(
      batch, w.cache.capacity_rows() > 0 ? &w.cache : nullptr, &attrib);
  // Network time is part of batch preparation in the round math below;
  // attribute it the same way so the verdict sees the same split.
  attrib.sample += network_seconds;
  attribs.push_back(attrib);
  ledger.rows_from_cache += out.transfer.rows_from_cache;
  loss_sum += out.loss_sum;
  const double transfer_seconds = out.times.data_transfer;
  const double nn_seconds = out.times.nn_compute;

  // Per-worker pipelining (DistDGLv2-style): in steady state batch
  // preparation (and with the full pipeline, transfer) overlaps with the
  // device work of the previous batch; the synchronous barrier per round
  // still gates across workers.
  const double prep_seconds = out.times.batch_prep + network_seconds;
  double seconds = 0.0;
  switch (config_.pipeline) {
    case PipelineMode::kNone:
      seconds = prep_seconds + transfer_seconds + nn_seconds;
      break;
    case PipelineMode::kOverlapBp:
      seconds = std::max(prep_seconds, transfer_seconds + nn_seconds);
      break;
    case PipelineMode::kOverlapBpDt:
      seconds = std::max({prep_seconds, transfer_seconds, nn_seconds});
      break;
  }

  ledger.seconds += seconds;
  return seconds;
}

DistEpochStats DistTrainer::TrainEpoch() {
  TRACE_SPAN("trainer.epoch");
  DistEpochStats stats;
  stats.epoch = epoch_;
  stats.workers.resize(partition_.num_parts);

  // Each worker selects an epoch of batches over its local train set.
  RandomBatchSelector selector;
  std::vector<std::vector<std::vector<VertexId>>> selected(
      partition_.num_parts);
  size_t max_rounds = 0;
  for (uint32_t p = 0; p < partition_.num_parts; ++p) {
    if (workers_[p].local_train.empty()) continue;
    selected[p] = selector.SelectEpoch(workers_[p].local_train,
                                       config_.batch_size, workers_[p].rng);
    max_rounds = std::max(max_rounds, selected[p].size());
  }
  // One BatchSource prepares every worker's batches, interleaved
  // round-major: the order the rounds below consume them in. Moving the
  // seeds out leaves each selected[p].size() intact for the rounds.
  std::vector<std::vector<VertexId>> batches;
  for (size_t round = 0; round < max_rounds; ++round) {
    for (uint32_t p = 0; p < partition_.num_parts; ++p) {
      if (round < selected[p].size()) {
        batches.push_back(std::move(selected[p][round]));
      }
    }
  }
  std::unique_ptr<BatchSource> source = EpochSource(std::move(batches));

  double loss_sum = 0.0;
  std::vector<BatchAttribution> batch_attribs;
  for (size_t round = 0; round < max_rounds; ++round) {
    double round_max = 0.0;
    uint32_t active = 0;
    for (uint32_t p = 0; p < partition_.num_parts; ++p) {
      if (round >= selected[p].size()) continue;
      std::optional<PreparedBatch> prepared = source->Next();
      GNNDM_CHECK(prepared.has_value());
      round_max = std::max(round_max,
                           RunWorkerBatch(p, *prepared, stats, loss_sum,
                                          batch_attribs));
      ++active;
    }
    // Average the summed gradients over the participating workers, then
    // apply one synchronous update. The step is charged to the batch that
    // closes the round, and its span carries that batch's index.
    uint64_t grad_bytes = 0;
    {
      BatchAttribution& closing = batch_attribs.back();
      TRACE_SPAN("trainer.optimizer", closing.index, &closing.wall_optimizer);
      const float scale = 1.0f / static_cast<float>(active);
      for (Parameter* param : model_->Parameters()) {
        ScaleInPlace(param->grad, scale);
        grad_bytes += param->grad.size() * sizeof(float);
      }
      optimizer_->Step();
    }
    // Ring all-reduce of the gradients: every worker sends and receives
    // ~2x the model size per synchronization ("only the gradients need
    // to be synchronized", §2).
    const double sync_seconds =
        active > 1 ? network_.Seconds(2 * grad_bytes, active) : 0.0;
    if (telemetry::Enabled()) {
      telemetry::GetCounter(telemetry_names::kDistRounds).Increment();
      telemetry::GetCounter(telemetry_names::kDistSyncBytes)
          .Add(2 * grad_bytes);
      telemetry::GetHistogram(telemetry_names::kDistRoundSeconds,
                              telemetry::ExponentialBuckets(1e-4, 4, 10))
          .Observe(round_max + sync_seconds);
      telemetry::Tracer& tracer = telemetry::Tracer::Get();
      if (tracer.active()) {
        // Rounds concatenate on the DIST lane of the virtual timeline.
        const double begin = total_seconds_ + stats.epoch_seconds;
        tracer.AddVirtualSpan("dist.round", begin, round_max,
                              telemetry::kLaneDist,
                              static_cast<int64_t>(round));
        tracer.AddVirtualSpan("dist.sync", begin + round_max, sync_seconds,
                              telemetry::kLaneDist,
                              static_cast<int64_t>(round));
      }
    }
    stats.epoch_seconds +=
        round_max + sync_seconds;  // barrier: slowest worker gates
  }
  if (!dataset_.split.train.empty()) {
    stats.train_loss =
        loss_sum / static_cast<double>(dataset_.split.train.size());
  }
  stats.attribution = FinishEpoch(batch_attribs, stats.epoch_seconds);
  return stats;
}

}  // namespace gnndm
