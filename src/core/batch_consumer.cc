#include "core/batch_consumer.h"

#include <algorithm>

#include "common/rng.h"
#include "common/telemetry.h"
#include "core/attribution.h"
#include "core/batch_source.h"
#include "core/costs.h"
#include "core/metrics.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "nn/model.h"
#include "nn/row_view.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "transfer/device_model.h"
#include "transfer/feature_cache.h"
#include "transfer/transfer_engine.h"

namespace gnndm {

BatchConsumer::BatchConsumer(const Dataset& dataset,
                             const DeviceModel& device,
                             const TransferEngine& transfer, GnnModel& model,
                             size_t hidden_dim, uint32_t num_conv_layers,
                             uint32_t num_mlp_layers)
    : dataset_(dataset),
      device_(device),
      transfer_(transfer),
      model_(model),
      hidden_dim_(hidden_dim),
      num_conv_layers_(num_conv_layers),
      num_mlp_layers_(num_mlp_layers) {}

ConsumeOutcome BatchConsumer::Consume(const PreparedBatch& batch,
                                      const FeatureCache* cache,
                                      BatchAttribution* attrib) {
  ConsumeOutcome out;
  const SampledSubgraph& sg = batch.subgraph;

  // --- Batch preparation accounting. The MLP/DNN baseline (num_hops ==
  // 0) trains on independent samples: its "subgraph" is the seed rows. ---
  out.times.batch_prep = device_.SampleSeconds(
      model_.num_hops() == 0 ? batch.seeds.size() : sg.TotalEdges());
  out.involved_vertices = sg.TotalVertices();
  out.involved_edges = sg.TotalEdges();

  // --- Data transferring: account the modeled cost of moving the input
  // rows host -> device. An engine that extracts had the source stage
  // them; the others read them in place below. ---
  {
    TRACE_SPAN("trainer.transfer", batch.index);
    out.transfer =
        transfer_.Cost(sg.input_vertices(), dataset_.features, cache);
  }
  out.times.data_transfer = out.transfer.TotalSeconds();
  out.times.extract = out.transfer.extract_seconds;
  out.times.load = out.transfer.transfer_seconds;

  // --- NN computation: real forward/backward, virtual GPU time. The
  // optimizer step (and, distributed, the gradient average) is the
  // caller's. ---
  {
    TRACE_SPAN("trainer.nn", batch.index,
               attrib != nullptr ? &attrib->wall_compute : nullptr);
    const Tensor& logits = model_.Forward(
        sg, batch.InputRows(dataset_.features), /*train=*/true);
    labels_scratch_.resize(batch.seeds.size());
    for (size_t i = 0; i < batch.seeds.size(); ++i) {
      labels_scratch_[i] = dataset_.labels[batch.seeds[i]];
    }
    const double loss =
        SoftmaxCrossEntropy(logits, labels_scratch_, d_logits_scratch_);
    model_.Backward(sg, d_logits_scratch_);
    out.loss_sum = loss * static_cast<double>(batch.seeds.size());
    out.times.nn_compute = device_.NnStepSeconds(
        EstimateGnnFlops(sg, dataset_.features.dim(), hidden_dim_,
                         dataset_.num_classes, num_mlp_layers_),
        num_conv_layers_ + num_mlp_layers_);
  }
  if (attrib != nullptr) {
    attrib->index = batch.index;
    attrib->sample = out.times.batch_prep;
    attrib->extract = out.times.extract;
    attrib->load = out.times.load;
    attrib->compute = out.times.nn_compute;
    attrib->wall_sample = batch.sample_seconds;
    attrib->wall_gather = batch.gather_seconds;
    attrib->wall_queue_wait = batch.queue_wait_seconds;
  }
  return out;
}

// gnndm-hot
void BatchConsumer::Evaluate(const std::vector<VertexId>& vertices,
                             const NeighborSampler* sampler, Rng& rng,
                             ClassificationMetrics& metrics) {
  const uint32_t eval_batch = 1024;
  for (size_t begin = 0; begin < vertices.size(); begin += eval_batch) {
    const size_t end = std::min(vertices.size(), begin + eval_batch);
    eval_seeds_.assign(vertices.begin() + begin, vertices.begin() + end);
    if (sampler == nullptr) {
      eval_subgraph_.node_ids.assign(1, eval_seeds_);
    } else {
      eval_subgraph_ = sampler->Sample(dataset_.graph, eval_seeds_, rng);
    }
    const std::vector<VertexId>& ids = eval_subgraph_.input_vertices();
    const bool stage = transfer_.extracts();
    if (stage) TransferEngine::Gather(ids, dataset_.features, eval_input_);
    const RowView input =
        stage ? RowView(eval_input_) : RowView(dataset_.features, ids);
    const Tensor& logits =
        model_.Forward(eval_subgraph_, input, /*train=*/false);
    ArgmaxRowsInto(logits, eval_preds_);
    for (size_t i = 0; i < eval_seeds_.size(); ++i) {
      metrics.Add(eval_preds_[i], dataset_.labels[eval_seeds_[i]]);
    }
  }
}

}  // namespace gnndm
