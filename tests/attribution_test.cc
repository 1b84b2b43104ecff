// Tests for per-batch stall attribution (core/attribution.h): verdict
// logic on synthetic records, the bit-exact reconciliation contract with
// EpochStats, the loader wait-accounting invariants across source kinds
// (inline / 1 worker / 4 workers), distributed epochs' wall split, and
// the one-measurement contract (each wall field is its span's duration,
// and zero with telemetry off), full-graph epochs included.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/telemetry.h"
#include "common/telemetry_names.h"
#include "core/attribution.h"
#include "core/full_batch.h"
#include "core/trainer.h"
#include "dist/dist_trainer.h"
#include "graph/dataset.h"
#include "partition/hash_partitioner.h"
#include "partition/partitioner.h"
#include "sampling/neighbor_sampler.h"
#include "transfer/pipeline.h"

namespace gnndm {
namespace {

BatchAttribution Rec(double sample, double transfer, double compute) {
  BatchAttribution b;
  b.sample = sample;
  b.extract = transfer / 2.0;
  b.load = transfer / 2.0;
  b.compute = compute;
  return b;
}

TEST(AttributionTest, BottleneckNames) {
  EXPECT_STREQ(BottleneckName(Bottleneck::kSampleBound), "sample-bound");
  EXPECT_STREQ(BottleneckName(Bottleneck::kGatherBound), "gather-bound");
  EXPECT_STREQ(BottleneckName(Bottleneck::kTransferBound), "transfer-bound");
  EXPECT_STREQ(BottleneckName(Bottleneck::kComputeBound), "compute-bound");
  EXPECT_STREQ(BottleneckName(Bottleneck::kLoaderStarved), "loader-starved");
}

TEST(AttributionTest, AttributeEpochSumsInDeliveryOrder) {
  // Dyadic values: exact in binary, so the expected sums below are the
  // unique correct doubles regardless of accumulation details.
  std::vector<BatchAttribution> recs = {Rec(0.25, 0.5, 0.125),
                                        Rec(0.75, 0.25, 0.375),
                                        Rec(0.5, 0.125, 0.25)};
  EpochAttribution out = AttributeEpoch(3, recs, 2.0, 0);
  EXPECT_EQ(out.epoch, 3u);
  EXPECT_EQ(out.batches, 3u);
  EXPECT_EQ(out.sample, 1.5);
  EXPECT_EQ(out.extract + out.load, 0.875);
  EXPECT_EQ(out.compute, 0.75);
  EXPECT_EQ(out.pipeline_seconds, 2.0);
}

TEST(AttributionTest, VerdictFollowsVirtualArgmax) {
  std::vector<BatchAttribution> prep = {Rec(3.0, 1.0, 1.0)};
  EXPECT_EQ(AttributeEpoch(0, prep, 3.0, 0).verdict,
            Bottleneck::kSampleBound);
  std::vector<BatchAttribution> transfer = {Rec(1.0, 3.0, 1.0)};
  EXPECT_EQ(AttributeEpoch(0, transfer, 3.0, 0).verdict,
            Bottleneck::kTransferBound);
  std::vector<BatchAttribution> compute = {Rec(1.0, 1.0, 3.0)};
  EXPECT_EQ(AttributeEpoch(0, compute, 3.0, 0).verdict,
            Bottleneck::kComputeBound);
  // All-equal tie resolves prep-first (the paper's default), and an
  // empty epoch degrades to the same default rather than crashing.
  std::vector<BatchAttribution> tie = {Rec(1.0, 1.0, 1.0)};
  EXPECT_EQ(AttributeEpoch(0, tie, 1.0, 0).verdict,
            Bottleneck::kSampleBound);
  EXPECT_EQ(AttributeEpoch(0, {}, 0.0, 0).verdict,
            Bottleneck::kSampleBound);
}

TEST(AttributionTest, PrepVerdictSplitsOnObservedGatherShare) {
  BatchAttribution b = Rec(3.0, 1.0, 1.0);
  b.wall_sample = 0.1;
  b.wall_gather = 0.4;
  EXPECT_EQ(AttributeEpoch(0, {b}, 3.0, 0).verdict,
            Bottleneck::kGatherBound);
  b.wall_sample = 0.4;
  b.wall_gather = 0.1;
  EXPECT_EQ(AttributeEpoch(0, {b}, 3.0, 0).verdict,
            Bottleneck::kSampleBound);
}

TEST(AttributionTest, LoaderStarvedNeedsWorkersAndMajorityWait) {
  BatchAttribution b = Rec(1.0, 1.0, 1.0);
  b.wall_queue_wait = 0.9;
  b.wall_compute = 0.2;
  b.wall_optimizer = 0.1;
  // Majority of consumer wall time spent waiting + workers exist.
  EXPECT_EQ(AttributeEpoch(0, {b}, 1.0, 4).verdict,
            Bottleneck::kLoaderStarved);
  // Same observation without producer workers cannot be starvation.
  EXPECT_EQ(AttributeEpoch(0, {b}, 1.0, 0).verdict,
            Bottleneck::kSampleBound);
  // Workers exist but waiting stayed under half: not starvation.
  b.wall_queue_wait = 0.1;
  EXPECT_EQ(AttributeEpoch(0, {b}, 1.0, 4).verdict,
            Bottleneck::kSampleBound);
}

TEST(AttributionTest, SteadyStateSkipsWarmupEpoch) {
  // Epoch 0 is compute-heavy (cold caches), steady epochs are
  // transfer-heavy: the steady verdict must ignore epoch 0.
  std::vector<EpochAttribution> epochs = {
      AttributeEpoch(0, {Rec(1.0, 1.0, 10.0)}, 10.0, 0),
      AttributeEpoch(1, {Rec(1.0, 3.0, 1.0)}, 3.0, 0),
      AttributeEpoch(2, {Rec(1.0, 3.0, 1.0)}, 3.0, 0)};
  EXPECT_EQ(epochs[0].verdict, Bottleneck::kComputeBound);
  EXPECT_EQ(SteadyStateVerdict(epochs), Bottleneck::kTransferBound);
  // A single epoch is all the evidence there is: its verdict stands.
  epochs.resize(1);
  EXPECT_EQ(SteadyStateVerdict(epochs), Bottleneck::kComputeBound);
  EXPECT_EQ(SteadyStateVerdict({}), Bottleneck::kSampleBound);
}

TEST(AttributionTest, ReportCarriesEpochRowsAndSteadyRow) {
  std::vector<EpochAttribution> epochs = {
      AttributeEpoch(0, {Rec(1.0, 3.0, 1.0)}, 3.0, 0),
      AttributeEpoch(1, {Rec(1.0, 3.0, 1.0)}, 3.0, 0)};
  const std::string ascii = AttributionReport(epochs).ToAscii();
  EXPECT_NE(ascii.find("transfer-bound"), std::string::npos);
  EXPECT_NE(ascii.find("steady"), std::string::npos);
  EXPECT_NE(ascii.find("queue_wait(w)"), std::string::npos);
}

class AttributionTrainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<Dataset> ds = LoadDataset("arxiv_s", 1);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::move(ds).value();
  }
  TrainerConfig SmallConfig() {
    TrainerConfig config;
    config.hidden_dim = 16;
    config.batch_size = 512;
    config.hops = {HopSpec::Fanout(5), HopSpec::Fanout(5)};
    config.pipeline = PipelineMode::kOverlapBpDt;
    config.seed = 2;
    return config;
  }
  Dataset dataset_;
};

// The core contract: attribution's virtual sums are the same doubles,
// added in the same (delivery) order, as the EpochStats accumulators —
// equal bit for bit, not just within a tolerance. A full-graph epoch is
// one batch to the same accounting.
TEST_F(AttributionTrainerTest, ReconcilesBitExactWithEpochStats) {
  const auto expect_reconciles = [](auto& trainer) {
    for (int e = 0; e < 2; ++e) {
      EpochStats stats = trainer.TrainEpoch();
      const EpochAttribution& a = stats.attribution;
      EXPECT_GT(a.batches, 0u);
      EXPECT_EQ(a.sample, stats.batch_prep_seconds);
      EXPECT_EQ(a.extract, stats.extract_seconds);
      EXPECT_EQ(a.load, stats.load_seconds);
      EXPECT_EQ(a.compute, stats.nn_seconds);
      EXPECT_EQ(a.pipeline_seconds, stats.epoch_seconds);
    }
    EXPECT_EQ(trainer.attribution_history().size(), 2u);
  };
  Trainer trainer(dataset_, SmallConfig());
  expect_reconciles(trainer);
  FullBatchTrainer full(dataset_, SmallConfig());
  expect_reconciles(full);
  EXPECT_EQ(full.attribution_history().back().batches, 1u);
}

// Reconciliation is independent of who prepared the batches: the async
// reorder ring delivers in the same order the inline source produces.
TEST_F(AttributionTrainerTest, ReconcilesBitExactWithAsyncLoader) {
  TrainerConfig config = SmallConfig();
  config.loader_workers = 4;
  Trainer trainer(dataset_, config);
  EpochStats stats = trainer.TrainEpoch();
  const EpochAttribution& a = stats.attribution;
  EXPECT_EQ(a.sample, stats.batch_prep_seconds);
  EXPECT_EQ(a.extract, stats.extract_seconds);
  EXPECT_EQ(a.load, stats.load_seconds);
  EXPECT_EQ(a.compute, stats.nn_seconds);
  EXPECT_EQ(a.pipeline_seconds, stats.epoch_seconds);
}

// Loader wait accounting across source kinds. For every worker count the
// consumer-wait histogram observes exactly one sample per delivered
// batch, and its sum is the same doubles, in the same delivery order, as
// the per-batch queue_wait_seconds that attribution aggregates.
TEST_F(AttributionTrainerTest, WaitAccountingReconcilesAcrossSources) {
  telemetry::SetEnabled(true);
  namespace names = telemetry_names;
  for (size_t workers : {size_t{0}, size_t{1}, size_t{4}}) {
    SCOPED_TRACE("loader_workers=" + std::to_string(workers));
    telemetry::Histogram& consumer_wait = telemetry::GetHistogram(
        names::kLoaderConsumerWaitSeconds,
        telemetry::ExponentialBuckets(1e-6, 4, 11));
    telemetry::Histogram& producer_wait = telemetry::GetHistogram(
        names::kLoaderProducerWaitSeconds,
        telemetry::ExponentialBuckets(1e-6, 4, 11));
    telemetry::Counter& batches =
        telemetry::GetCounter(names::kLoaderBatches);
    telemetry::Gauge& occupancy =
        telemetry::GetGauge(names::kLoaderReorderOccupancy);
    consumer_wait.Reset();
    producer_wait.Reset();
    batches.Reset();
    // Sentinel: only an async delivery may overwrite it.
    occupancy.Set(-1);

    TrainerConfig config = SmallConfig();
    config.loader_workers = workers;
    Trainer trainer(dataset_, config);
    EpochStats stats = trainer.TrainEpoch();
    const EpochAttribution& a = stats.attribution;

    EXPECT_EQ(consumer_wait.Count(), a.batches);
    EXPECT_EQ(batches.Value(), static_cast<int64_t>(a.batches));
    EXPECT_EQ(consumer_wait.Sum(), a.wall_queue_wait);
    if (workers == 0) {
      // Inline delivery never waits and never touches the ring.
      EXPECT_EQ(a.wall_queue_wait, 0.0);
      EXPECT_EQ(producer_wait.Count(), 0u);
      EXPECT_EQ(occupancy.Value(), -1);
    } else {
      // One producer-side observation per produced batch, and the
      // occupancy gauge reflects a real ring level again.
      EXPECT_EQ(producer_wait.Count(), a.batches);
      EXPECT_GE(occupancy.Value(), 0);
    }
  }
  telemetry::SetEnabled(false);
}

// Distributed epochs draw their batches from the BatchSource too, so the
// producer-side wall split reaches their attribution and a batch-prep
// verdict can split into sample- vs gather-bound.
TEST_F(AttributionTrainerTest, DistributedEpochObservesSampleAndGatherWall) {
  telemetry::SetEnabled(true);
  PartitionResult partition =
      HashPartitioner().Partition({dataset_.graph, dataset_.split}, 4, 1);
  DistTrainer trainer(dataset_, partition, SmallConfig());
  const EpochAttribution& a = trainer.TrainEpoch().attribution;
  EXPECT_GT(a.batches, 0u);
  EXPECT_GT(a.wall_sample, 0.0);
  EXPECT_GT(a.wall_gather, 0.0);
  telemetry::SetEnabled(false);
}

// One measurement per stage: every wall field of a record is the
// duration of its batch's span, the same double the trace holds, whether
// the batch was prepared inline or by a loader worker, single-worker,
// distributed or full-graph. A distributed epoch steps once per round
// and charges the step to the batch that closes the round, so only those
// records carry an optimizer span; the others keep 0. A full-graph epoch
// is one batch that no loader prepares: no loader span, and its loader
// fields keep 0.
TEST_F(AttributionTrainerTest, WallFieldsAreTheirSpansDurations) {
  telemetry::SetEnabled(true);
  telemetry::Tracer& tracer = telemetry::Tracer::Get();
  const auto expect_spans_match =
      [&tracer](const std::vector<BatchAttribution>& records,
                bool step_per_batch, bool has_producers,
                bool has_loader = true) {
        std::map<std::pair<std::string, int64_t>, double> span_seconds;
        for (const telemetry::TraceEvent& e : tracer.Snapshot()) {
          if (e.domain != telemetry::ClockDomain::kWall || e.batch < 0) {
            continue;
          }
          EXPECT_TRUE(span_seconds.emplace(std::pair(e.name, e.batch), e.dur)
                          .second)
              << "two " << e.name << " spans for batch " << e.batch;
        }
        ASSERT_FALSE(records.empty());
        uint64_t steps = 0;
        for (const BatchAttribution& r : records) {
          const auto seconds = [&](const char* name) {
            const auto it = span_seconds.find({name, r.index});
            return it == span_seconds.end() ? -1.0 : it->second;
          };
          if (has_loader) {
            EXPECT_EQ(r.wall_sample, seconds("loader.sample")) << r.index;
            EXPECT_EQ(r.wall_gather, seconds("loader.gather")) << r.index;
          } else {
            EXPECT_EQ(seconds("loader.sample"), -1.0) << r.index;
            EXPECT_EQ(seconds("loader.gather"), -1.0) << r.index;
            EXPECT_EQ(r.wall_sample, 0.0) << r.index;
            EXPECT_EQ(r.wall_gather, 0.0) << r.index;
          }
          EXPECT_EQ(r.wall_compute, seconds("trainer.nn")) << r.index;
          const double step = seconds("trainer.optimizer");
          if (step >= 0.0) ++steps;
          EXPECT_EQ(r.wall_optimizer,
                    step >= 0.0 || step_per_batch ? step : 0.0)
              << r.index;
          if (has_producers) {
            EXPECT_EQ(r.wall_queue_wait, seconds("loader.consumer_wait"))
                << r.index;
          }
        }
        // Every step span landed in a record.
        EXPECT_EQ(steps, tracer.SpanCount("trainer.optimizer",
                                          telemetry::ClockDomain::kWall));
        EXPECT_GT(steps, 0u);
        EXPECT_EQ(tracer.SpanCount("trainer.epoch",
                                   telemetry::ClockDomain::kWall),
                  1u);
      };
  const PartitionResult partition =
      HashPartitioner().Partition({dataset_.graph, dataset_.split}, 4, 1);
  for (size_t workers : {size_t{0}, size_t{1}}) {
    SCOPED_TRACE("loader_workers=" + std::to_string(workers));
    TrainerConfig config = SmallConfig();
    config.loader_workers = workers;
    Trainer trainer(dataset_, config);
    tracer.Start();
    trainer.TrainEpoch();
    tracer.Stop();
    expect_spans_match(trainer.last_epoch_batches(), true, workers > 0);
    DistTrainer dist(dataset_, partition, config);
    tracer.Start();
    dist.TrainEpoch();
    tracer.Stop();
    expect_spans_match(dist.last_epoch_batches(), false, workers > 0);
  }
  FullBatchTrainer full(dataset_, SmallConfig());
  tracer.Start();
  full.TrainEpoch();
  tracer.Stop();
  expect_spans_match(full.last_epoch_batches(), true, false,
                     /*has_loader=*/false);
  telemetry::SetEnabled(false);
}

// With telemetry off no span sink is written, so every wall field of
// every record stays 0.0, single-worker and distributed alike.
TEST_F(AttributionTrainerTest, WallFieldsStayZeroWithTelemetryOff) {
  telemetry::SetEnabled(false);
  const auto expect_all_zero = [](const std::vector<BatchAttribution>& rs) {
    ASSERT_FALSE(rs.empty());
    for (const BatchAttribution& r : rs) {
      EXPECT_EQ(r.wall_sample, 0.0) << r.index;
      EXPECT_EQ(r.wall_gather, 0.0) << r.index;
      EXPECT_EQ(r.wall_queue_wait, 0.0) << r.index;
      EXPECT_EQ(r.wall_compute, 0.0) << r.index;
      EXPECT_EQ(r.wall_optimizer, 0.0) << r.index;
    }
  };
  for (size_t workers : {size_t{0}, size_t{1}}) {
    SCOPED_TRACE("loader_workers=" + std::to_string(workers));
    TrainerConfig config = SmallConfig();
    config.loader_workers = workers;
    Trainer trainer(dataset_, config);
    trainer.TrainEpoch();
    expect_all_zero(trainer.last_epoch_batches());
    PartitionResult partition =
        HashPartitioner().Partition({dataset_.graph, dataset_.split}, 4, 1);
    DistTrainer dist(dataset_, partition, config);
    dist.TrainEpoch();
    expect_all_zero(dist.last_epoch_batches());
  }
  telemetry::SetEnabled(true);
}

TEST_F(AttributionTrainerTest, PublishesVerdictAndShareGauges) {
  telemetry::SetEnabled(true);
  namespace names = telemetry_names;
  Trainer trainer(dataset_, SmallConfig());
  EpochStats stats = trainer.TrainEpoch();
  EXPECT_EQ(telemetry::GetGauge(names::kAttribVerdict).Value(),
            static_cast<int64_t>(stats.attribution.verdict));
  const int64_t share_sum =
      telemetry::GetGauge(names::kAttribSamplePm).Value() +
      telemetry::GetGauge(names::kAttribTransferPm).Value() +
      telemetry::GetGauge(names::kAttribComputePm).Value();
  // Integer truncation loses at most 1 per-mille per share.
  EXPECT_GE(share_sum, 997);
  EXPECT_LE(share_sum, 1000);
  telemetry::SetEnabled(false);
}

}  // namespace
}  // namespace gnndm
