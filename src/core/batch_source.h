#ifndef GNNDM_CORE_BATCH_SOURCE_H_
#define GNNDM_CORE_BATCH_SOURCE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/rng.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "nn/row_view.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/tensor.h"

namespace gnndm {

/// One fully prepared training batch: the sampled L-hop subgraph plus,
/// when the source stages them, its gathered input-feature rows, ready
/// for the NN.
struct PreparedBatch {
  uint32_t index = 0;
  std::vector<VertexId> seeds;
  SampledSubgraph subgraph;
  /// Input feature rows for subgraph.input_vertices() when the source
  /// stages them (BatchSourceOptions::stage_input); empty otherwise.
  Tensor input;
  /// Wall-clock stall attribution (core/attribution.h): the seconds of
  /// this batch's loader.sample, loader.gather and loader.consumer_wait
  /// spans, which the spans' sinks fill only while telemetry is enabled
  /// (zero otherwise; gather is zero too when nothing is staged). Never
  /// fed back into batch content, so the delivered stream stays
  /// byte-identical either way.
  double sample_seconds = 0.0;
  double gather_seconds = 0.0;
  double queue_wait_seconds = 0.0;

  /// The rows the first layer reads: the staged `input`, or, when
  /// nothing was staged, the rows of `features` at
  /// subgraph.input_vertices(), in place. Both hold the same floats.
  RowView InputRows(const FeatureMatrix& features) const {
    if (input.empty()) return RowView(features, subgraph.input_vertices());
    return input;
  }
};

/// The one batch data plane: everything that turns a list of seed
/// vertices into PreparedBatches flows through a BatchSource — the
/// paper's batch-preparation axis (§6) made pluggable. Implementations
/// differ only in *who* produces (the calling thread or N background
/// workers) and *how far ahead*; the delivered stream is identical across
/// all of them.
///
/// Determinism contract: batch i is sampled with Rng(BatchRngSeed(seed,
/// i)) and delivered strictly in index order, so the stream of prepared
/// batches — seeds, subgraph structure, and, where the source stages
/// rows, the gathered feature bytes — is byte-identical for every
/// implementation at any {workers, queue_depth} and any compute-thread
/// count, staging or not (asserted by batch_source_test and the
/// loader_cli_identity ctest).
class BatchSource {
 public:
  virtual ~BatchSource() = default;

  /// Blocks until the next batch (in index order) is ready; std::nullopt
  /// after the last batch has been delivered.
  virtual std::optional<PreparedBatch> Next() = 0;

  virtual size_t num_batches() const = 0;
};

/// Per-batch derived RNG seed: the draw stream of batch i depends only on
/// (source seed, i), never on which worker sampled it or how far ahead
/// the producers run. Shared by every BatchSource implementation — this
/// function IS the determinism contract.
inline uint64_t BatchRngSeed(uint64_t seed, uint32_t index) {
  return seed ^ (0x9E3779B97F4A7C15ULL * (index + 1ull));
}

/// Knobs for MakeBatchSource.
struct BatchSourceOptions {
  /// Producer workers. 0 = synchronous InlineBatchSource; N >= 1 =
  /// AsyncBatchSource with N background producer threads.
  size_t workers = 0;
  /// Reorder-buffer capacity (prefetch window) for the async source;
  /// ignored inline. Clamped to >= 1.
  size_t queue_depth = 4;
  /// Base seed; batch i draws from Rng(BatchRngSeed(seed, i)).
  uint64_t seed = 0;
  /// Gather each batch's input rows into PreparedBatch::input: the CPU
  /// extract stage of an engine that extracts (TransferEngine::extracts).
  /// False: the producers only sample, and the NN reads the rows in
  /// place.
  bool stage_input = true;
};

/// Synchronous implementation: Next() samples, and stages the input rows
/// if asked, on the calling thread. The zero-thread baseline every other
/// source must match byte for byte.
class InlineBatchSource : public BatchSource {
 public:
  /// `graph`/`features`/`sampler` must outlive the source. `sampler` may
  /// be null (MLP/DNN baseline): the "subgraph" is then just the seeds.
  /// `stage_input` as in BatchSourceOptions.
  InlineBatchSource(const CsrGraph& graph, const FeatureMatrix& features,
                    std::vector<std::vector<VertexId>> batches,
                    const NeighborSampler* sampler, uint64_t seed,
                    bool stage_input = true);

  std::optional<PreparedBatch> Next() override;
  size_t num_batches() const override { return batches_.size(); }

 private:
  const CsrGraph& graph_;
  const FeatureMatrix& features_;
  std::vector<std::vector<VertexId>> batches_;
  const NeighborSampler* sampler_;
  uint64_t seed_;
  bool stage_input_;
  uint32_t next_ = 0;
};

/// Multi-producer prefetching implementation: N worker threads claim
/// batch indices off a shared cursor, sample (and stage) them concurrently
/// (sharing one const NeighborSampler; scratch is per-thread), and insert
/// them into a bounded reorder buffer that Next() drains strictly in
/// index order — the DGL/GNNLab "dataloader workers" model.
///
/// Window semantics: the reorder buffer holds at most `queue_depth`
/// batches, all with indices in [next_deliver, next_deliver +
/// queue_depth). A worker whose finished batch does not fit the window
/// yet blocks holding it, so total prepared-but-undelivered batches are
/// bounded by queue_depth + workers. The batch the consumer needs always
/// fits the window (queue_depth >= 1), so the pipeline cannot deadlock.
///
/// Thread-safety: all shared state is guarded by `mu_` and annotated for
/// Clang Thread Safety Analysis; `graph_`/`features_`/`batches_` are
/// written only before the worker threads start. Destruction mid-epoch
/// (even with a full reorder buffer and blocked workers) wakes and joins
/// every worker.
class AsyncBatchSource : public BatchSource {
 public:
  AsyncBatchSource(const CsrGraph& graph, const FeatureMatrix& features,
                   std::vector<std::vector<VertexId>> batches,
                   const NeighborSampler* sampler, uint64_t seed,
                   size_t queue_depth, size_t workers,
                   bool stage_input = true);
  ~AsyncBatchSource() override;

  AsyncBatchSource(const AsyncBatchSource&) = delete;
  AsyncBatchSource& operator=(const AsyncBatchSource&) = delete;

  std::optional<PreparedBatch> Next() override GNNDM_EXCLUDES(mu_);
  size_t num_batches() const override { return batches_.size(); }

  /// Batches currently parked in the reorder buffer (test/telemetry
  /// probe; racy by nature, exact only when the producers are blocked).
  size_t buffered() GNNDM_EXCLUDES(mu_);

 private:
  void WorkerLoop(uint32_t worker_id) GNNDM_EXCLUDES(mu_);

  const CsrGraph& graph_;
  const FeatureMatrix& features_;
  std::vector<std::vector<VertexId>> batches_;
  const NeighborSampler* sampler_;
  uint64_t seed_;
  size_t queue_depth_;
  bool stage_input_;

  Mutex mu_{"loader.reorder_mu"};
  CondVar window_open_;  ///< producers: your index now fits the window
  CondVar batch_ready_;  ///< consumer: a reorder slot was filled
  /// Ring-addressed reorder buffer: batch i parks in slot i % queue_depth
  /// (windowed indices never collide).
  std::vector<std::optional<PreparedBatch>> reorder_ GNNDM_GUARDED_BY(mu_);
  uint32_t next_claim_ GNNDM_GUARDED_BY(mu_) = 0;
  uint32_t next_deliver_ GNNDM_GUARDED_BY(mu_) = 0;
  size_t buffered_ GNNDM_GUARDED_BY(mu_) = 0;
  bool stop_ GNNDM_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

/// The one batch of full-graph (NeuGraph/ROC-style) training: batch 0,
/// every vertex a seed, its "subgraph" the identity vertex list at each
/// of the `num_layers` + 1 levels over the full adjacency (one level and
/// no layers for the 0-hop MLP). Nothing is staged: the features stay
/// resident, and the first layer reads them in place. FullBatchTrainer
/// builds it once and keeps it across epochs.
PreparedBatch FullGraphBatch(const CsrGraph& graph, uint32_t num_layers);

/// Factory used by the trainers and benches: workers == 0 yields the
/// inline source, otherwise the async source. All arguments as on the
/// constructors above.
std::unique_ptr<BatchSource> MakeBatchSource(
    const CsrGraph& graph, const FeatureMatrix& features,
    std::vector<std::vector<VertexId>> batches,
    const NeighborSampler* sampler, const BatchSourceOptions& options);

}  // namespace gnndm

#endif  // GNNDM_CORE_BATCH_SOURCE_H_
