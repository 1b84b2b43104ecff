#ifndef GNNDM_CORE_ATTRIBUTION_H_
#define GNNDM_CORE_ATTRIBUTION_H_

#include <cstdint>
#include <vector>

#include "common/table.h"

namespace gnndm {

/// Per-batch stall attribution (DESIGN.md §14): one record per delivered
/// batch, threaded BatchSource -> BatchConsumer -> Trainer/DistTrainer.
///
/// Two time domains, mirroring the telemetry tracer:
///  - virtual stage seconds come from the deterministic device cost
///    model (StageTimes) and are always filled — summing them per epoch
///    in delivery order reconciles bit-exact with EpochStats;
///  - wall seconds are real measurements, each the duration of the
///    stage's one telemetry::ScopedSpan, written through the span's sink
///    (and carried from producer to consumer in PreparedBatch). A sink
///    is written only while telemetry is enabled, so every wall field is
///    zero when it is disabled. They only observe — nothing here feeds
///    back into training.
struct BatchAttribution {
  uint32_t index = 0;
  // Virtual (cost model; deterministic).
  double sample = 0.0;   ///< StageTimes.batch_prep
  double extract = 0.0;  ///< host-side staging of the transfer
  double load = 0.0;     ///< PCIe load of the transfer
  double compute = 0.0;  ///< StageTimes.nn_compute
  // Wall (span sinks; zero with telemetry off).
  double wall_sample = 0.0;      ///< span loader.sample
  double wall_gather = 0.0;      ///< span loader.gather
  double wall_queue_wait = 0.0;  ///< span loader.consumer_wait
  double wall_compute = 0.0;     ///< span trainer.nn (forward/backward)
  double wall_optimizer = 0.0;   ///< span trainer.optimizer
};

/// The five verdicts a run can get. Order matters: the enum value is
/// published as the `attrib.verdict` gauge.
enum class Bottleneck {
  kSampleBound = 0,
  kGatherBound = 1,
  kTransferBound = 2,
  kComputeBound = 3,
  kLoaderStarved = 4,
};

/// "sample-bound", "gather-bound", "transfer-bound", "compute-bound",
/// "loader-starved".
const char* BottleneckName(Bottleneck b);

/// Per-epoch aggregate: plain `+=` over the batch records in delivery
/// order, which is exactly how EpochStats and PipelineResult accumulate
/// their doubles — so `sample == EpochStats.batch_prep_seconds` etc.
/// hold bit-for-bit (asserted by attribution_test).
struct EpochAttribution {
  uint32_t epoch = 0;
  uint64_t batches = 0;
  double sample = 0.0;
  double extract = 0.0;
  double load = 0.0;
  double compute = 0.0;
  double wall_sample = 0.0;
  double wall_gather = 0.0;
  double wall_queue_wait = 0.0;
  double wall_compute = 0.0;
  double wall_optimizer = 0.0;
  /// Pipeline-scheduled epoch seconds (== EpochStats.epoch_seconds).
  double pipeline_seconds = 0.0;
  Bottleneck verdict = Bottleneck::kSampleBound;
};

/// The one bottleneck rule, judged from the stage totals in `totals`
/// (its epoch, batches, pipeline_seconds and verdict are not read).
/// AttributeEpoch, SteadyStateVerdict and gnndm_traceq all call it.
/// Thresholds (DESIGN.md §14):
///  - loader-starved: `has_producers` and the consumer waited through
///    more than half of its wall time, wall_queue_wait + wall_compute +
///    wall_optimizer;
///  - otherwise argmax over the virtual stage totals {sample,
///    extract+load, compute} -> {sample/gather, transfer, compute}-bound,
///    ties resolved in that order (the paper's "batch preparation
///    dominates" default);
///  - a batch-prep verdict splits into gather-bound when the observed
///    producer wall time went mostly to the feature gather, else
///    sample-bound.
Bottleneck BottleneckVerdict(const EpochAttribution& totals,
                             bool has_producers);

/// Aggregates one epoch's records (in delivery order) and judges them
/// with BottleneckVerdict; producers exist when `loader_workers` > 0.
EpochAttribution AttributeEpoch(uint32_t epoch,
                                const std::vector<BatchAttribution>& batches,
                                double pipeline_seconds,
                                size_t loader_workers);

/// Steady-state verdict over a run: BottleneckVerdict over the summed
/// totals of the epochs after the first (the first epoch is warm-up:
/// cold caches, lazy allocations), where producers count as present when
/// some steady epoch was judged loader-starved; with a single epoch, its
/// verdict stands.
Bottleneck SteadyStateVerdict(const std::vector<EpochAttribution>& epochs);

/// The `--report` table: one row per epoch (virtual stage split + wall
/// queue wait) and a trailing steady-state verdict row.
Table AttributionReport(const std::vector<EpochAttribution>& epochs);

/// Publishes `epoch`'s shares as gauges (attrib.verdict plus per-mille
/// attrib.{sample,transfer,compute,queue_wait}_pm). No-op with telemetry
/// disabled.
void PublishAttributionMetrics(const EpochAttribution& epoch);

}  // namespace gnndm

#endif  // GNNDM_CORE_ATTRIBUTION_H_
