// Telemetry layer tests: concurrent instrument correctness (run under the
// TSan preset too), histogram quantile edge cases, trace JSON
// well-formedness, the disabled-mode zero-allocation guarantee, dual-clock
// span ordering, and the EpochStats <-> span reconciliation contract.
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "common/table.h"
#include "common/telemetry.h"
#include "core/trainer.h"
#include "graph/dataset.h"
#include "sampling/neighbor_sampler.h"
#include "transfer/pipeline.h"

// --- Allocation counter for the zero-allocation check. -----------------
// Every global allocation bumps g_allocations; the disabled-path test
// asserts the count is unchanged across a burst of instrument calls.
// GCC pairs the replaced operator new with the library one and flags the
// free() inside our matching delete — a false positive here, since every
// replacement below allocates via malloc/aligned_alloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::aligned_alloc(static_cast<size_t>(align),
                               size == 0 ? static_cast<size_t>(align) : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace gnndm {
namespace telemetry {
namespace {

TEST(AtomicDoubleTest, AddAndMax) {
  AtomicDouble d;
  EXPECT_EQ(d.Value(), 0.0);
  d.Add(1.5);
  d.Add(2.5);
  EXPECT_DOUBLE_EQ(d.Value(), 4.0);
  d.Max(3.0);  // below: no-op
  EXPECT_DOUBLE_EQ(d.Value(), 4.0);
  d.Max(7.25);
  EXPECT_DOUBLE_EQ(d.Value(), 7.25);
  d.Reset();
  EXPECT_EQ(d.Value(), 0.0);
}

TEST(AtomicDoubleTest, ConcurrentAddIsExactForIntegers) {
  // Integer-valued doubles below 2^53 add associatively, so the result
  // is exact regardless of interleaving.
  AtomicDouble d;
  constexpr int kThreads = 4;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&d] {
      for (int i = 0; i < kAdds; ++i) d.Add(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(d.Value(), kThreads * kAdds);
}

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(42);
  EXPECT_EQ(gauge.Value(), 42);
  gauge.Add(-12);
  EXPECT_EQ(gauge.Value(), 30);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0);
}

TEST(HistogramTest, BucketAssignment) {
  // Bucket i counts v <= bounds[i]; the last bucket is overflow.
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);   // bucket 0
  h.Observe(1.0);   // bucket 0 (inclusive upper bound)
  h.Observe(1.5);   // bucket 1
  h.Observe(4.0);   // bucket 2
  h.Observe(100.0);  // overflow
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(3), 1u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.5 + 1.0 + 1.5 + 4.0 + 100.0);
}

TEST(HistogramTest, QuantileEmptyIsZero) {
  Histogram h({1.0, 2.0});
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Quantile(0.0), 0.0);
  EXPECT_EQ(h.Quantile(1.0), 0.0);
}

TEST(HistogramTest, QuantileSingleBucket) {
  Histogram h({10.0});
  for (int i = 0; i < 100; ++i) h.Observe(3.0);
  // All mass in [0, 10]: quantiles interpolate within that one bucket.
  EXPECT_GT(h.Quantile(0.5), 0.0);
  EXPECT_LE(h.Quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 10.0);
}

TEST(HistogramTest, QuantileOverflowClampsToLargestBound) {
  Histogram h({1.0, 2.0});
  for (int i = 0; i < 10; ++i) h.Observe(1000.0);  // all overflow
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 2.0);
}

TEST(HistogramTest, QuantileInterpolationIsMonotone) {
  Histogram h(LinearBuckets(1.0, 1.0, 10));
  for (int i = 0; i < 1000; ++i) h.Observe((i % 10) + 0.5);
  double prev = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double v = h.Quantile(q);
    EXPECT_GE(v, prev) << "quantile not monotone at q=" << q;
    prev = v;
  }
}

TEST(HistogramTest, ConcurrentObserve) {
  Histogram h(ExponentialBuckets(1.0, 2.0, 8));
  constexpr int kThreads = 4;
  constexpr int kObs = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kObs; ++i) h.Observe(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads) * kObs);
  EXPECT_EQ(h.BucketCount(0), static_cast<uint64_t>(kThreads) * kObs);
  EXPECT_DOUBLE_EQ(h.Sum(), kThreads * kObs);
}

TEST(BucketsTest, LinearAndExponential) {
  EXPECT_EQ(LinearBuckets(0.0, 1.0, 4),
            (std::vector<double>{0.0, 1.0, 2.0, 3.0}));
  EXPECT_EQ(ExponentialBuckets(1.0, 10.0, 3),
            (std::vector<double>{1.0, 10.0, 100.0}));
}

TEST(MetricsRegistryTest, HandlesAreStableAndResetZeroes) {
  Counter& a = GetCounter("test.registry.counter");
  a.Add(7);
  Counter& b = GetCounter("test.registry.counter");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.Value(), 7u);
  MetricsRegistry::Get().Reset();
  EXPECT_EQ(a.Value(), 0u);
}

TEST(MetricsRegistryTest, HistogramBoundsOnlyUsedOnFirstCreation) {
  Histogram& a = GetHistogram("test.registry.hist", {1.0, 2.0});
  Histogram& b = GetHistogram("test.registry.hist", {99.0});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.bounds().size(), 2u);
}

TEST(MetricsRegistryTest, ConcurrentGetOrCreate) {
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<Counter*> seen(kThreads, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen] {
      seen[t] = &GetCounter("test.registry.race");
      seen[t]->Increment();
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(seen[0]->Value(), static_cast<uint64_t>(kThreads));
}

TEST(MetricsRegistryTest, ToJsonIsWellFormed) {
  GetCounter("test.json.counter").Add(3);
  GetGauge("test.json.gauge").Set(-5);
  GetHistogram("test.json.hist", LinearBuckets(0.0, 1.0, 4)).Observe(1.5);
  const std::string json = MetricsRegistry::Get().ToJson();
  EXPECT_TRUE(JsonLint(json).ok()) << JsonLint(json).ToString();
  EXPECT_NE(json.find("\"test.json.counter\": 3"), std::string::npos);
}

TEST(MetricsRegistryTest, ToTableSkipsZeroInstruments) {
  MetricsRegistry::Get().Reset();
  GetCounter("test.table.nonzero").Add(5);
  GetCounter("test.table.zero");
  Table table = MetricsRegistry::Get().ToTable(/*skip_zero=*/true);
  const std::string ascii = table.ToAscii();
  EXPECT_NE(ascii.find("test.table.nonzero"), std::string::npos);
  EXPECT_EQ(ascii.find("test.table.zero"), std::string::npos);
}

TEST(JsonLintTest, AcceptsValidDocuments) {
  for (const char* doc :
       {"{}", "[]", "null", "true", "42", "-1.5e3", "\"str\"",
        R"({"a": [1, 2.5, {"b": null}], "c": "é\n"})"}) {
    EXPECT_TRUE(JsonLint(doc).ok()) << doc;
  }
}

TEST(JsonLintTest, RejectsDuplicateObjectKeys) {
  for (const char* doc :
       {R"({"a": 1, "a": 2})",                 // flat duplicate
        R"({"a": 1, "b": 2, "a": 3})",         // duplicate after other keys
        R"({"o": {"x": 1, "x": 2}})",          // nested object
        R"([{"k": 1, "k": 1}])",               // object inside array
        R"({"": 0, "": 1})"}) {                // empty key duplicated
    const Status s = JsonLint(doc);
    EXPECT_FALSE(s.ok()) << doc;
    EXPECT_NE(s.ToString().find("duplicate object key"), std::string::npos)
        << s.ToString();
  }
  // Same key at different depths, or in sibling objects, is fine.
  for (const char* doc :
       {R"({"a": {"a": 1}})", R"([{"a": 1}, {"a": 2}])",
        R"({"x": {"k": 1}, "y": {"k": 2}})"}) {
    EXPECT_TRUE(JsonLint(doc).ok()) << doc;
  }
}

TEST(JsonLintTest, RejectsMalformedDocuments) {
  for (const char* doc :
       {"", "{", "[1,]", "{\"a\":}", "{'a': 1}", "01", "1 2", "nul",
        "\"unterminated", "{\"a\": 1,}", "[1 2]", "\"bad\\escape\""}) {
    EXPECT_FALSE(JsonLint(doc).ok()) << doc;
  }
}

TEST(TracerTest, StartClearsAndRecords) {
  Tracer& tracer = Tracer::Get();
  tracer.Start();
  tracer.AddWallSpan("test.tracer.a", 0.0, 1.0);
  tracer.Start();  // clears the first span
  tracer.AddWallSpan("test.tracer.a", 0.5, 2.0);
  tracer.AddVirtualSpan("test.tracer.b", 0.0, 3.0, kLaneNn, 7);
  tracer.Stop();
  EXPECT_EQ(tracer.SpanCount("test.tracer.a", ClockDomain::kWall), 1u);
  EXPECT_DOUBLE_EQ(tracer.SpanSeconds("test.tracer.a", ClockDomain::kWall),
                   2.0);
  EXPECT_EQ(tracer.SpanCount("test.tracer.b", ClockDomain::kVirtual), 1u);
  // Names are domain-scoped: no cross-domain bleed.
  EXPECT_EQ(tracer.SpanCount("test.tracer.a", ClockDomain::kVirtual), 0u);
  EXPECT_EQ(tracer.SpanCount("test.tracer.b", ClockDomain::kWall), 0u);
}

TEST(TracerTest, InactiveRecordsNothing) {
  Tracer& tracer = Tracer::Get();
  tracer.Start();
  tracer.Stop();
  tracer.AddWallSpan("test.tracer.inactive", 0.0, 1.0);
  { TRACE_SPAN("test.tracer.inactive"); }
  EXPECT_EQ(tracer.SpanCount("test.tracer.inactive", ClockDomain::kWall),
            0u);
}

TEST(TracerTest, ScopedSpanMeasuresEnclosedWork) {
  Tracer& tracer = Tracer::Get();
  tracer.Start();
  {
    TRACE_SPAN("test.tracer.scoped", 3);
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  }
  tracer.Stop();
  ASSERT_EQ(tracer.SpanCount("test.tracer.scoped", ClockDomain::kWall), 1u);
  const std::vector<TraceEvent> events = tracer.Snapshot();
  for (const TraceEvent& e : events) {
    if (e.name == "test.tracer.scoped") {
      EXPECT_GE(e.ts, 0.0);
      EXPECT_GT(e.dur, 0.0);
      EXPECT_EQ(e.batch, 3);
    }
  }
}

TEST(TracerTest, ChromeJsonIsWellFormedAndTracksDomains) {
  Tracer& tracer = Tracer::Get();
  tracer.Start();
  tracer.AddWallSpan("test.chrome.wall", 0.25, 0.5, 11);
  tracer.AddVirtualSpan("test.chrome.virtual", 1.0, 2.0, kLaneDt);
  tracer.Stop();
  const std::string json = tracer.ToChromeJson();
  EXPECT_TRUE(JsonLint(json).ok()) << JsonLint(json).ToString();
  // Metadata names both processes and the virtual lanes.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("wall clock"), std::string::npos);
  EXPECT_NE(json.find("virtual clock"), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // Wall events carry pid 1, virtual pid 2, ts/dur in microseconds.
  EXPECT_NE(json.find("\"name\": \"test.chrome.wall\", \"cat\": \"wall\""),
            std::string::npos);
  EXPECT_NE(json.find("\"pid\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 250000"), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"batch\": 11}"), std::string::npos);
}

TEST(TracerTest, WriteChromeTraceRoundTrips) {
  Tracer& tracer = Tracer::Get();
  tracer.Start();
  tracer.AddWallSpan("test.write.span", 0.0, 1.0);
  tracer.Stop();
  const std::string path =
      ::testing::TempDir() + "/telemetry_test_trace.json";
  ASSERT_TRUE(tracer.WriteChromeTrace(path).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(JsonLint(buffer.str()).ok());
  EXPECT_NE(buffer.str().find("test.write.span"), std::string::npos);
}

// A run that records no event (telemetry off, or compiled out) still
// writes its trace: the metadata records alone must form valid JSON.
TEST(TracerTest, EmptyTraceIsWellFormed) {
  Tracer& tracer = Tracer::Get();
  tracer.Start();
  tracer.Stop();
  ASSERT_TRUE(tracer.Snapshot().empty());
  const std::string json = tracer.ToChromeJson();
  EXPECT_TRUE(JsonLint(json).ok()) << JsonLint(json).ToString();
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  const std::string path =
      ::testing::TempDir() + "/telemetry_test_empty_trace.json";
  EXPECT_TRUE(tracer.WriteChromeTrace(path).ok());
}

TEST(TracerTest, ConcurrentSpanRecording) {
  Tracer& tracer = Tracer::Get();
  tracer.Start();
  constexpr int kThreads = 4;
  constexpr int kSpans = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kSpans; ++i) {
        tracer.AddWallSpan("test.concurrent.span", i * 1e-6, 1e-6);
      }
    });
  }
  for (auto& t : threads) t.join();
  tracer.Stop();
  EXPECT_EQ(tracer.SpanCount("test.concurrent.span", ClockDomain::kWall),
            static_cast<uint64_t>(kThreads) * kSpans);
}

TEST(TracerTest, DualClockSpanOrdering) {
  // Wall spans record in per-thread program order; virtual spans on one
  // lane must not overlap (each lane is one simulated resource).
  Tracer& tracer = Tracer::Get();
  tracer.Start();
  {
    TRACE_SPAN("test.order.first");
  }
  {
    TRACE_SPAN("test.order.second");
  }
  tracer.AddVirtualSpan("test.order.v", 0.0, 1.0, kLaneBp, 0);
  tracer.AddVirtualSpan("test.order.v", 1.0, 1.0, kLaneBp, 1);
  tracer.Stop();
  const std::vector<TraceEvent> events = tracer.Snapshot();
  double first_ts = -1.0, second_ts = -1.0;
  double lane_prev_end = 0.0;
  for (const TraceEvent& e : events) {
    if (e.name == "test.order.first") first_ts = e.ts;
    if (e.name == "test.order.second") second_ts = e.ts;
    if (e.name == "test.order.v") {
      EXPECT_GE(e.ts + 1e-12, lane_prev_end);
      lane_prev_end = e.ts + e.dur;
    }
  }
  ASSERT_GE(first_ts, 0.0);
  ASSERT_GE(second_ts, 0.0);
  // The second scope began after the first ended (same thread).
  EXPECT_GE(second_ts, first_ts);
}

TEST(TelemetryDisabledTest, InstrumentsAreZeroAllocation) {
  // Bind all handles (and the tracer singleton) first — creation
  // allocates; the steady-state disabled path must not.
  Counter& counter = GetCounter("test.zeroalloc.counter");
  Histogram& hist =
      GetHistogram("test.zeroalloc.hist", LinearBuckets(0.0, 1.0, 4));
  Gauge& gauge = GetGauge("test.zeroalloc.gauge");
  Tracer& tracer = Tracer::Get();
  tracer.Stop();
  SetEnabled(false);

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    counter.Increment();
    counter.Add(5);
    hist.Observe(1.5);
    gauge.Set(9);
    TRACE_SPAN("test.zeroalloc.span");
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  SetEnabled(true);

  EXPECT_EQ(after, before) << "disabled telemetry allocated";
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(hist.Count(), 0u);
  EXPECT_EQ(gauge.Value(), 0);
}

TEST(TelemetryDisabledTest, EnabledHotPathIsZeroAllocationToo) {
  Counter& counter = GetCounter("test.hotpath.counter");
  Histogram& hist =
      GetHistogram("test.hotpath.hist", LinearBuckets(0.0, 1.0, 4));
  counter.Increment();  // fault in the thread-local shard index
  hist.Observe(0.5);
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    counter.Increment();
    hist.Observe(1.5);
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "enabled counter/histogram hot path allocated";
}

// --- EpochStats <-> telemetry reconciliation (the one-source-of-truth
// contract): per-epoch stage totals equal the summed spans. -------------

class ReconciliationTest : public ::testing::Test {
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
    config.seed = 2;
    return config;
  }
  void CheckEpochAgainstSpans(const TrainerConfig& config,
                              bool loader_runs_concurrently = false) {
    Trainer trainer(dataset_, config);
    Tracer& tracer = Tracer::Get();
    tracer.Start();
    EpochStats stats = trainer.TrainEpoch();
    tracer.Stop();

    // Virtual domain: exact reconciliation — the spans carry the same
    // doubles the stats accumulated, in the same order.
    EXPECT_DOUBLE_EQ(
        tracer.SpanSeconds("trainer.bp", ClockDomain::kVirtual),
        stats.batch_prep_seconds);
    EXPECT_DOUBLE_EQ(
        tracer.SpanSeconds("trainer.extract", ClockDomain::kVirtual),
        stats.extract_seconds);
    EXPECT_DOUBLE_EQ(
        tracer.SpanSeconds("trainer.load", ClockDomain::kVirtual),
        stats.load_seconds);
    EXPECT_DOUBLE_EQ(
        tracer.SpanSeconds("trainer.nn", ClockDomain::kVirtual),
        stats.nn_seconds);

    // Every batch produced one span per virtual stage.
    const uint64_t batches =
        tracer.SpanCount("trainer.nn", ClockDomain::kVirtual);
    EXPECT_GT(batches, 0u);
    EXPECT_EQ(tracer.SpanCount("trainer.bp", ClockDomain::kVirtual),
              batches);
    EXPECT_EQ(tracer.SpanCount("trainer.extract", ClockDomain::kVirtual),
              batches);
    EXPECT_EQ(tracer.SpanCount("trainer.load", ClockDomain::kVirtual),
              batches);

    // Wall domain: every batch was timed exactly once per stage, and the
    // epoch span bounds the per-stage wall time (a stage timed twice
    // would overshoot it; a missing stage shows up as count mismatch).
    EXPECT_EQ(tracer.SpanCount("trainer.nn", ClockDomain::kWall), batches);
    EXPECT_EQ(tracer.SpanCount("trainer.transfer", ClockDomain::kWall),
              batches);
    ASSERT_EQ(tracer.SpanCount("trainer.epoch", ClockDomain::kWall), 1u);
    const double epoch_wall =
        tracer.SpanSeconds("trainer.epoch", ClockDomain::kWall);
    const double stage_wall =
        tracer.SpanSeconds("trainer.sample", ClockDomain::kWall) +
        tracer.SpanSeconds("trainer.transfer", ClockDomain::kWall) +
        tracer.SpanSeconds("trainer.nn", ClockDomain::kWall) +
        tracer.SpanSeconds("loader.sample", ClockDomain::kWall) +
        tracer.SpanSeconds("loader.gather", ClockDomain::kWall);
    // Inline path: stages are disjoint sub-intervals of the epoch span, so
    // a stage timed twice would overshoot it. With the async loader the
    // background thread's spans overlap the epoch in wall time, so only a
    // two-thread bound holds.
    const double slack = loader_runs_concurrently ? 2.0 : 1.0;
    EXPECT_LE(stage_wall, epoch_wall * (slack + 0.1) + 1e-3)
        << "stages timed more than once";
  }
  Dataset dataset_;
};

TEST_F(ReconciliationTest, InlinePathNoPipeline) {
  CheckEpochAgainstSpans(SmallConfig());
}

TEST_F(ReconciliationTest, FullPipeline) {
  TrainerConfig config = SmallConfig();
  config.pipeline = PipelineMode::kOverlapBpDt;
  CheckEpochAgainstSpans(config);
}

TEST_F(ReconciliationTest, AsyncLoaderPath) {
  TrainerConfig config = SmallConfig();
  config.loader_workers = 1;
  config.async_queue_depth = 2;
  const uint64_t loader_batches_before =
      GetCounter("loader.batches").Value();
  CheckEpochAgainstSpans(config, /*loader_runs_concurrently=*/true);
  EXPECT_GT(GetCounter("loader.batches").Value(), loader_batches_before);
}

TEST_F(ReconciliationTest, VirtualSpansOnOneLaneDoNotOverlap) {
  TrainerConfig config = SmallConfig();
  config.pipeline = PipelineMode::kOverlapBpDt;
  Trainer trainer(dataset_, config);
  Tracer& tracer = Tracer::Get();
  tracer.Start();
  (void)trainer.TrainEpoch();
  (void)trainer.TrainEpoch();  // epochs must concatenate, not restart at 0
  tracer.Stop();
  double lane_end[4] = {0.0, 0.0, 0.0, 0.0};
  for (const TraceEvent& e : tracer.Snapshot()) {
    if (e.domain != ClockDomain::kVirtual) continue;
    ASSERT_LT(e.track, 4u);
    EXPECT_GE(e.ts + 1e-9, lane_end[e.track])
        << "virtual span " << e.name << " overlaps its lane";
    lane_end[e.track] = e.ts + e.dur;
  }
}

TEST_F(ReconciliationTest, TelemetryDoesNotChangeTrainingOutput) {
  // The byte-identity contract, in-process: loss trajectories match with
  // telemetry on + tracing vs fully disabled.
  std::vector<double> traced_losses;
  {
    Trainer trainer(dataset_, SmallConfig());
    Tracer::Get().Start();
    for (int e = 0; e < 2; ++e) {
      traced_losses.push_back(trainer.TrainEpoch().train_loss);
    }
    Tracer::Get().Stop();
  }
  std::vector<double> untraced_losses;
  {
    SetEnabled(false);
    Trainer trainer(dataset_, SmallConfig());
    for (int e = 0; e < 2; ++e) {
      untraced_losses.push_back(trainer.TrainEpoch().train_loss);
    }
    SetEnabled(true);
  }
  ASSERT_EQ(traced_losses.size(), untraced_losses.size());
  for (size_t i = 0; i < traced_losses.size(); ++i) {
    EXPECT_EQ(traced_losses[i], untraced_losses[i]) << "epoch " << i;
  }
}

}  // namespace
}  // namespace telemetry
}  // namespace gnndm
