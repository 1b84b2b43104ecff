#include "core/batch_source.h"

#include <numeric>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/telemetry_names.h"
#include "common/timer.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/sampled_subgraph.h"
#include "transfer/transfer_engine.h"

namespace gnndm {

namespace {

/// Wait-time buckets: 1us .. ~1s, geometric. Waits below the first bound
/// are uncontended condvar passes; the tail shows real stalls.
telemetry::Histogram& WaitHistogram(const std::string& name) {
  return telemetry::GetHistogram(name,
                                 telemetry::ExponentialBuckets(1e-6, 4, 11));
}

/// The one definition of batch production, shared by every source: sample
/// batch `index` with its derived RNG stream, then gather its feature
/// rows. Safe to call concurrently (const sampler, per-thread scratch).
/// Each stage's span is its only timer and sinks the stage's seconds into
/// the batch (stall attribution; DESIGN.md §14).
PreparedBatch ProduceBatch(const CsrGraph& graph,
                           const FeatureMatrix& features,
                           const NeighborSampler* sampler, uint64_t seed,
                           uint32_t index, std::vector<VertexId> seeds) {
  PreparedBatch prepared;
  prepared.index = index;
  prepared.seeds = std::move(seeds);
  {
    TRACE_SPAN("loader.sample", index, &prepared.sample_seconds);
    if (sampler != nullptr) {
      Rng rng(BatchRngSeed(seed, index));
      prepared.subgraph = sampler->Sample(graph, prepared.seeds, rng);
      GNNDM_DCHECK_OK(prepared.subgraph.Validate(graph.num_vertices()));
    } else {
      // MLP/DNN baseline: independent samples, no neighborhood — the
      // batch is just the seed rows (the Fig 2 contrast).
      prepared.subgraph.node_ids.push_back(prepared.seeds);
    }
  }
  {
    TRACE_SPAN("loader.gather", index, &prepared.gather_seconds);
    TransferEngine::Gather(prepared.subgraph.input_vertices(), features,
                           prepared.input);
  }
  return prepared;
}

/// The instruments every delivered batch updates, bound once per
/// process: a registry lookup takes the registry mutex, and the handles
/// it returns are never invalidated.
struct DeliveryInstruments {
  telemetry::Counter& batches =
      telemetry::GetCounter(telemetry_names::kLoaderBatches);
  telemetry::Histogram& consumer_wait =
      WaitHistogram(telemetry_names::kLoaderConsumerWaitSeconds);
  telemetry::Gauge& occupancy =
      telemetry::GetGauge(telemetry_names::kLoaderReorderOccupancy);
};

const DeliveryInstruments& Delivery() {
  static const DeliveryInstruments instruments;
  return instruments;
}

}  // namespace

// --- InlineBatchSource --------------------------------------------------

InlineBatchSource::InlineBatchSource(
    const CsrGraph& graph, const FeatureMatrix& features,
    std::vector<std::vector<VertexId>> batches,
    const NeighborSampler* sampler, uint64_t seed)
    : graph_(graph),
      features_(features),
      batches_(std::move(batches)),
      sampler_(sampler),
      seed_(seed) {}

std::optional<PreparedBatch> InlineBatchSource::Next() {
  if (next_ >= batches_.size()) return std::nullopt;
  const uint32_t i = next_++;
  PreparedBatch batch = ProduceBatch(graph_, features_, sampler_, seed_, i,
                                     std::move(batches_[i]));
  if (telemetry::Enabled()) {
    const DeliveryInstruments& delivery = Delivery();
    delivery.batches.Increment();
    // Inline delivery never waits; observing the zero keeps the
    // reconciliation invariant (histogram count == delivered batches,
    // sum == Σ queue_wait_seconds) uniform across source kinds.
    delivery.consumer_wait.Observe(0.0);
  }
  return batch;
}

// --- AsyncBatchSource ---------------------------------------------------

AsyncBatchSource::AsyncBatchSource(
    const CsrGraph& graph, const FeatureMatrix& features,
    std::vector<std::vector<VertexId>> batches,
    const NeighborSampler* sampler, uint64_t seed, size_t queue_depth,
    size_t workers)
    : graph_(graph),
      features_(features),
      batches_(std::move(batches)),
      sampler_(sampler),
      seed_(seed),
      queue_depth_(queue_depth == 0 ? 1 : queue_depth) {
  reorder_.resize(queue_depth_);
  const size_t n = workers == 0 ? 1 : workers;
  workers_.reserve(n);
  for (size_t w = 0; w < n; ++w) {
    workers_.emplace_back(
        [this, w] { WorkerLoop(static_cast<uint32_t>(w)); });
  }
}

AsyncBatchSource::~AsyncBatchSource() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  window_open_.NotifyAll();
  batch_ready_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

size_t AsyncBatchSource::buffered() {
  MutexLock lock(mu_);
  return buffered_;
}

void AsyncBatchSource::WorkerLoop(uint32_t worker_id) {
  // Per-worker instrument names are built once; registry lookups take the
  // registry mutex, so every instrument the loop touches is pre-resolved
  // here and the steady state is relaxed atomic bumps only.
  telemetry::Counter& produced = telemetry::GetCounter(
      telemetry_names::LoaderWorkerProduced(worker_id));
  telemetry::Histogram& wait_hist =
      WaitHistogram(telemetry_names::kLoaderProducerWaitSeconds);
  telemetry::Counter& window_waits =
      telemetry::GetCounter(telemetry_names::kLoaderWorkerWindowWaits);
  telemetry::Gauge& occupancy =
      telemetry::GetGauge(telemetry_names::kLoaderReorderOccupancy);
  for (;;) {
    uint32_t i = 0;
    {
      // gnndm-lint: suppress(parallel-context): claim lock is the sanctioned work-distribution point, held for two integer ops
      MutexLock lock(mu_);
      if (stop_ || next_claim_ >= batches_.size()) return;
      i = next_claim_++;
    }
    PreparedBatch prepared;
    {
      TRACE_SPAN("loader.produce", i);
      prepared = ProduceBatch(graph_, features_, sampler_, seed_, i,
                              std::move(batches_[i]));
    }
    {
      // timer-ok: measures condvar wait, not a pipeline stage.
      WallTimer wait_timer;
      // gnndm-lint: suppress(parallel-context): publish lock is the sanctioned reorder-ring handoff; batch production happened outside it
      MutexLock lock(mu_);
      bool waited = false;
      while (!stop_ && i >= next_deliver_ + queue_depth_) {
        waited = true;
        // gnndm-lint: suppress(parallel-context): backpressure by design — this condvar wait is what bounds the reorder ring
        window_open_.Wait(mu_);
      }
      if (telemetry::Enabled()) {
        wait_hist.Observe(wait_timer.Seconds());
        if (waited) {
          window_waits.Increment();
        }
      }
      if (stop_) return;
      reorder_[i % queue_depth_] = std::move(prepared);
      ++buffered_;
      if (telemetry::Enabled()) {
        produced.Increment();
        occupancy.Set(static_cast<int64_t>(buffered_));
        // gnndm-lint: suppress(parallel-context): trace ring push takes a short lock; tracing is opt-in and off by default
        telemetry::Tracer::Get().AddCounterSample(
            telemetry_names::kLoaderReorderOccupancy,
            static_cast<double>(buffered_));
      }
    }
    // The consumer only proceeds once slot next_deliver fills; a later
    // index waking it is a spurious pass absorbed by its wait loop.
    batch_ready_.NotifyAll();
  }
}

std::optional<PreparedBatch> AsyncBatchSource::Next() {
  std::optional<PreparedBatch> batch;
  {
    MutexLock lock(mu_);
    // After the last batch there is nothing to wait for: end-of-epoch is
    // not a batch stall and is deliberately not observed.
    if (stop_ || next_deliver_ >= batches_.size()) return std::nullopt;
    const size_t slot = next_deliver_ % queue_depth_;
    double wait = 0.0;
    {
      // The stall itself, so gnndm_traceq can judge loader starvation
      // from the trace alone; its seconds are the batch's queue wait.
      TRACE_SPAN("loader.consumer_wait", next_deliver_, &wait);
      while (!stop_ && !reorder_[slot].has_value()) batch_ready_.Wait(mu_);
    }
    if (stop_) return std::nullopt;
    batch = std::move(reorder_[slot]);
    reorder_[slot].reset();
    --buffered_;
    ++next_deliver_;
    if (telemetry::Enabled()) {
      // Delivered-only observation: the histogram's count equals the
      // delivered-batch count and its sum reconciles bit-exact with the
      // per-batch queue_wait_seconds field (single consumer thread, the
      // same doubles added in the same order) — asserted by
      // attribution_test.
      batch->queue_wait_seconds = wait;
      const DeliveryInstruments& delivery = Delivery();
      delivery.consumer_wait.Observe(wait);
      delivery.batches.Increment();
      delivery.occupancy.Set(static_cast<int64_t>(buffered_));
      telemetry::Tracer::Get().AddCounterSample(
          telemetry_names::kLoaderReorderOccupancy,
          static_cast<double>(buffered_));
    }
  }
  // Delivery opened the window by one index; several producers may have
  // been parked on it.
  window_open_.NotifyAll();
  return batch;
}

// --- FullBatchSource ----------------------------------------------------

FullBatchSource::FullBatchSource(const CsrGraph& graph,
                                 const FeatureMatrix& features,
                                 uint32_t num_layers) {
  GNNDM_CHECK(num_layers >= 1);
  // Every level is the identity vertex list, every layer the full
  // adjacency in local (= global) ids.
  const VertexId n = graph.num_vertices();
  std::vector<VertexId> all(n);
  std::iota(all.begin(), all.end(), 0u);
  SampleLayer full_layer;
  full_layer.num_src = n;
  full_layer.num_dst = n;
  full_layer.offsets.reserve(n + 1);
  full_layer.offsets.push_back(0);
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId u : graph.neighbors(v)) {
      full_layer.neighbors.push_back(u);
    }
    full_layer.offsets.push_back(
        static_cast<uint32_t>(full_layer.neighbors.size()));
  }
  batch_.index = 0;
  batch_.seeds = all;
  batch_.subgraph.node_ids.assign(num_layers + 1, all);
  batch_.subgraph.layers.assign(num_layers, full_layer);
  TransferEngine::Gather(all, features, batch_.input);
}

std::optional<PreparedBatch> FullBatchSource::Next() {
  if (delivered_) return std::nullopt;
  delivered_ = true;
  return std::move(batch_);
}

// --- Factory ------------------------------------------------------------

std::unique_ptr<BatchSource> MakeBatchSource(
    const CsrGraph& graph, const FeatureMatrix& features,
    std::vector<std::vector<VertexId>> batches,
    const NeighborSampler* sampler, const BatchSourceOptions& options) {
  if (options.workers == 0) {
    return std::make_unique<InlineBatchSource>(
        graph, features, std::move(batches), sampler, options.seed);
  }
  return std::make_unique<AsyncBatchSource>(
      graph, features, std::move(batches), sampler, options.seed,
      options.queue_depth, options.workers);
}

}  // namespace gnndm
