// Tests for the crash flight recorder (common/flight_recorder.h): ring
// semantics, dump schema and well-formedness, span events stamped with
// the tracer's own readings, post-mortem gating, and the end-to-end
// death test — a GNNDM_CHECK tripped mid-epoch must leave a post-mortem
// naming the in-flight batch and the failing thread's last pipeline
// spans.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "batch/batch_selector.h"
#include "common/flight_recorder.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/batch_source.h"
#include "graph/dataset.h"
#include "sampling/neighbor_sampler.h"

namespace gnndm {
namespace {

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TempPath(const char* stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + stem + "_" + info->name() + ".json";
}

/// Records one span event stamped now.
void RecordNow(flight_recorder::EventKind kind, const char* name,
               int64_t batch) {
  flight_recorder::Record(kind, name, batch, telemetry::SteadyNowNs());
}

/// The t_ns of the first dumped `kind` ("begin"/"end") event named
/// `name`, read from the dump's text (a steady-clock reading may exceed
/// what a double holds exactly); -1 when there is none.
int64_t DumpedTimestamp(const std::string& dump, const std::string& kind,
                        const std::string& name) {
  const std::string tag =
      "\"kind\": \"" + kind + "\", \"name\": \"" + name + "\"";
  std::istringstream lines(dump);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t at = line.find("\"t_ns\": ");
    if (line.find(tag) == std::string::npos || at == std::string::npos) {
      continue;
    }
    return std::stoll(line.substr(at + 8));
  }
  return -1;
}

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    flight_recorder::SetEnabled(true);
    flight_recorder::SetPostMortemPath("");
    flight_recorder::ResetForTest();
  }
  void TearDown() override {
    flight_recorder::SetPostMortemPath("");
    flight_recorder::ResetForTest();
  }
};

TEST_F(FlightRecorderTest, DumpJsonIsWellFormedAndCarriesEvents) {
  RecordNow(flight_recorder::EventKind::kSpanBegin, "test.stage", 7);
  RecordNow(flight_recorder::EventKind::kSpanEnd, "test.stage", 7);
  const std::string json = flight_recorder::DumpJson("unit \"test\"");
  ASSERT_TRUE(telemetry::JsonLint(json).ok()) << json;
  EXPECT_NE(json.find("unit \\\"test\\\""), std::string::npos);
  EXPECT_NE(json.find("test.stage"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"begin\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"end\""), std::string::npos);
  EXPECT_NE(json.find("\"batch\": 7}"), std::string::npos);
}

TEST_F(FlightRecorderTest, SpanEventsRefreshLastBatch) {
  RecordNow(flight_recorder::EventKind::kSpanBegin, "test.stage", 31);
  const std::string json = flight_recorder::DumpJson("batch check");
  EXPECT_NE(json.find("\"last_batch\": 31"), std::string::npos) << json;
  // A span outside any batch (index -1) leaves the marker alone.
  RecordNow(flight_recorder::EventKind::kSpanBegin, "test.epoch", -1);
  const std::string again = flight_recorder::DumpJson("batch check");
  EXPECT_NE(again.find("\"last_batch\": 31"), std::string::npos);
}

// The recorder reads no clock of its own: a span's begin/end events
// carry the very readings behind the tracer's span and the span's sink.
TEST_F(FlightRecorderTest, SpanEventsCarryTheTracersReadings) {
  telemetry::SetEnabled(true);
  if (!telemetry::Enabled()) GTEST_SKIP() << "telemetry compiled out";
  telemetry::Tracer& tracer = telemetry::Tracer::Get();
  double sink = -1.0;
  tracer.Start();
  {
    TRACE_SPAN("test.recorder.span", 4, &sink);
    volatile double work = 0.0;
    for (int i = 0; i < 10000; ++i) work = work + 1.0;
  }
  tracer.Stop();
  const std::string dump = flight_recorder::DumpJson("readings");
  const int64_t begin_ns = DumpedTimestamp(dump, "begin", "test.recorder.span");
  const int64_t end_ns = DumpedTimestamp(dump, "end", "test.recorder.span");
  ASSERT_GE(begin_ns, 0) << dump;
  ASSERT_GE(end_ns, begin_ns) << dump;
  const double seconds = static_cast<double>(end_ns - begin_ns) * 1e-9;
  int spans = 0;
  for (const telemetry::TraceEvent& e : tracer.Snapshot()) {
    if (e.name != "test.recorder.span") continue;
    ++spans;
    EXPECT_EQ(e.ts, tracer.SinceStart(begin_ns));
    EXPECT_EQ(e.dur, seconds);
    EXPECT_EQ(e.batch, 4);
  }
  EXPECT_EQ(spans, 1);
  EXPECT_EQ(sink, seconds);
}

TEST_F(FlightRecorderTest, RingKeepsOnlyTheLastCapacityEvents) {
  // 200 events through a 64-slot ring: the oldest surviving batch is
  // 200 - 64 = 136 and everything older is gone.
  for (int64_t i = 0; i < 200; ++i) {
    RecordNow(flight_recorder::EventKind::kSpanBegin, "test.span", i);
  }
  const std::string json = flight_recorder::DumpJson("wrap");
  EXPECT_EQ(json.find("\"batch\": 135}"), std::string::npos);
  EXPECT_NE(json.find("\"batch\": 136}"), std::string::npos);
  EXPECT_NE(json.find("\"batch\": 199}"), std::string::npos);
}

TEST_F(FlightRecorderTest, DisabledRecorderDropsEvents) {
  flight_recorder::SetEnabled(false);
  RecordNow(flight_recorder::EventKind::kSpanBegin, "test.dropped", 1);
  flight_recorder::SetEnabled(true);
  const std::string json = flight_recorder::DumpJson("disabled");
  EXPECT_EQ(json.find("test.dropped"), std::string::npos);
}

TEST_F(FlightRecorderTest, DumpPostMortemGatedOnPathAndOnce) {
  // No path configured: nothing to write.
  EXPECT_FALSE(flight_recorder::DumpPostMortem("no path"));
  const std::string path = TempPath("postmortem_gate");
  std::remove(path.c_str());
  flight_recorder::SetPostMortemPath(path);
  RecordNow(flight_recorder::EventKind::kSpanBegin, "test.stage", 5);
  EXPECT_TRUE(flight_recorder::DumpPostMortem("first"));
  // Second dump is dropped: the first crash owns the artifact.
  EXPECT_FALSE(flight_recorder::DumpPostMortem("second"));
  const std::string body = ReadFileOrEmpty(path);
  ASSERT_FALSE(body.empty());
  EXPECT_TRUE(telemetry::JsonLint(body).ok()) << body;
  EXPECT_NE(body.find("\"reason\": \"first\""), std::string::npos);
  EXPECT_NE(body.find("\"last_batch\": 5"), std::string::npos);
  EXPECT_EQ(body.find("second"), std::string::npos);
  std::remove(path.c_str());
}

// End-to-end: a check failure mid-epoch leaves a post-mortem naming the
// in-flight batch index and the failing thread's last pipeline spans.
TEST_F(FlightRecorderTest, CheckFailureWritesPipelinePostMortem) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = TempPath("postmortem_death");
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        flight_recorder::SetEnabled(true);
        flight_recorder::SetPostMortemPath(path);
        Result<Dataset> ds = LoadDataset("arxiv_s", 17);
        GNNDM_CHECK(ds.ok());
        Dataset dataset = std::move(ds).value();
        RandomBatchSelector selector;
        Rng rng(18);
        NeighborSampler sampler = NeighborSampler::WithFanouts({5, 5});
        BatchSourceOptions options;
        options.seed = 19;
        auto source =
            MakeBatchSource(dataset.graph, dataset.features,
                            selector.SelectEpoch(dataset.split.train, 256,
                                                 rng),
                            &sampler, options);
        // Two delivered batches put loader.sample / loader.gather spans
        // with batch indices 0 and 1 into this thread's ring, then the
        // "epoch" dies between batches.
        GNNDM_CHECK(source->Next().has_value());
        GNNDM_CHECK(source->Next().has_value());
        GNNDM_CHECK(false) << "mid-epoch boom";
      },
      "mid-epoch boom");
  const std::string body = ReadFileOrEmpty(path);
  ASSERT_FALSE(body.empty()) << "no post-mortem at " << path;
  EXPECT_TRUE(telemetry::JsonLint(body).ok()) << body;
  EXPECT_NE(body.find("mid-epoch boom"), std::string::npos);
  // The failing thread's ring must show the last pipeline spans and the
  // in-flight batch (index 1 was the last span-tagged batch).
  EXPECT_NE(body.find("loader.sample"), std::string::npos);
  EXPECT_NE(body.find("loader.gather"), std::string::npos);
  EXPECT_NE(body.find("\"last_batch\": 1"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gnndm
