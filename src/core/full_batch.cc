#include "core/full_batch.h"

#include <vector>

#include "common/telemetry.h"
#include "core/attribution.h"
#include "core/batch_source.h"
#include "core/costs.h"
#include "core/metrics.h"
#include "core/trainer.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "transfer/pipeline.h"

namespace gnndm {

FullBatchTrainer::FullBatchTrainer(const Dataset& dataset,
                                   const TrainerConfig& config)
    : TrainerBase(dataset, config),
      full_graph_(FullGraphBatch(dataset.graph, model_->num_hops())) {}

EpochStats FullBatchTrainer::TrainEpoch() {
  TRACE_SPAN("trainer.epoch");
  EpochStats stats;
  stats.epoch = epoch_;
  stats.batch_size = dataset_.graph.num_vertices();  // "full"
  stats.involved_vertices =
      static_cast<uint64_t>(dataset_.graph.num_vertices()) *
      (model_->num_hops() + 1);
  const SampledSubgraph& sg = full_graph_.subgraph;
  stats.involved_edges = sg.TotalEdges();

  // Features live on the GPU across epochs in full-batch systems; charge
  // one DMA of the whole matrix per epoch as an amortized upper bound.
  const uint64_t feature_bytes =
      static_cast<uint64_t>(dataset_.graph.num_vertices()) *
      dataset_.features.BytesPerVertex();
  stats.load_seconds = config_.device.DmaSeconds(feature_bytes);
  stats.bytes_transferred = feature_bytes;
  stats.rows_requested = dataset_.graph.num_vertices();

  BatchAttribution attrib;
  {
    TRACE_SPAN("trainer.nn", 0, &attrib.wall_compute);
    const Tensor& logits = model_->Forward(
        sg, full_graph_.InputRows(dataset_.features), /*train=*/true);

    // Mask the loss to the training vertices: gather their logit rows,
    // compute the loss there, scatter gradients back.
    const auto& train = dataset_.split.train;
    Tensor train_logits(train.size(), logits.cols());
    std::vector<int32_t> labels(train.size());
    for (size_t i = 0; i < train.size(); ++i) {
      auto src = logits.row(train[i]);
      auto dst = train_logits.row(i);
      for (size_t c = 0; c < logits.cols(); ++c) dst[c] = src[c];
      labels[i] = dataset_.labels[train[i]];
    }
    Tensor train_grad;
    stats.train_loss = SoftmaxCrossEntropy(train_logits, labels, train_grad);
    Tensor d_logits(logits.rows(), logits.cols());
    for (size_t i = 0; i < train.size(); ++i) {
      auto src = train_grad.row(i);
      auto dst = d_logits.row(train[i]);
      for (size_t c = 0; c < logits.cols(); ++c) dst[c] = src[c];
    }
    model_->Backward(sg, d_logits);
  }
  {
    TRACE_SPAN("trainer.optimizer", 0, &attrib.wall_optimizer);
    optimizer_->Step();
  }

  // The epoch is one batch: no sampling, the feature load, the step.
  StageTimes times;
  times.load = stats.load_seconds;
  times.data_transfer = times.load;
  times.nn_compute = config_.device.NnStepSeconds(
      EstimateGnnFlops(sg, dataset_.features.dim(), config_.hidden_dim,
                       dataset_.num_classes, config_.num_mlp_layers),
      config_.num_conv_layers + config_.num_mlp_layers);
  attrib.load = times.load;
  attrib.compute = times.nn_compute;
  ClosePipelinedEpoch({times}, {attrib}, stats);
  return stats;
}

ClassificationMetrics FullBatchTrainer::EvaluateDetailed(
    const std::vector<VertexId>& vertices) {
  ClassificationMetrics metrics(dataset_.num_classes);
  if (vertices.empty()) return metrics;
  const Tensor& logits =
      model_->Forward(full_graph_.subgraph,
                      full_graph_.InputRows(dataset_.features), false);
  const std::vector<int32_t> preds = ArgmaxRows(logits);
  for (VertexId v : vertices) metrics.Add(preds[v], dataset_.labels[v]);
  return metrics;
}

uint64_t FullBatchTrainer::PeakMemoryBytes() const {
  const uint64_t n = dataset_.graph.num_vertices();
  uint64_t bytes = n * dataset_.features.BytesPerVertex();  // features
  // One activation matrix per conv layer plus logits, all |V| rows.
  bytes += n * config_.hidden_dim * sizeof(float) * config_.num_conv_layers;
  bytes += n * dataset_.num_classes * sizeof(float);
  const SampledSubgraph& sg = full_graph_.subgraph;
  // The adjacency, 8 bytes per edge.
  bytes += sg.layers.empty() ? 0 : sg.layers[0].num_edges() * 8;
  return bytes;
}

}  // namespace gnndm
