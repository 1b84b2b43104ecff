#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace gnndm {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad fanout");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad fanout");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status::NotFound("x"); };
  auto outer = [&]() -> Status {
    GNNDM_RETURN_IF_ERROR(inner());
    return Status::Ok();
  };
  EXPECT_EQ(outer().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::OutOfRange("too big");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformIntWithinBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.UniformInt(17), 17u);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformRealInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.UniformReal();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NormalHasRoughlyUnitMoments) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(13);
  std::vector<uint32_t> picks;
  std::vector<uint8_t> mark;
  for (uint32_t k : {1u, 5u, 50u, 99u}) {
    rng.SampleWithoutReplacement(100, k, picks, mark);
    std::set<uint32_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), k);
    for (uint32_t p : picks) EXPECT_LT(p, 100u);
  }
}

TEST(RngTest, SampleWithoutReplacementAllWhenKGeqN) {
  Rng rng(13);
  std::vector<uint32_t> picks;
  std::vector<uint8_t> mark;
  rng.SampleWithoutReplacement(10, 20, picks, mark);
  EXPECT_EQ(picks.size(), 10u);
}

/// Reference for Rng::SampleWithoutReplacement: the same three cases,
/// with Floyd's membership test done by scanning the picks made so far.
/// The mark array must reproduce it pick for pick and draw for draw.
void LinearScanSampleWithoutReplacement(Rng& rng, uint32_t n, uint32_t k,
                                        std::vector<uint32_t>& out) {
  out.clear();
  if (k >= n) {
    out.resize(n);
    std::iota(out.begin(), out.end(), 0u);
    return;
  }
  if (k * 3 < n) {
    out.reserve(k);
    for (uint32_t j = n - k; j < n; ++j) {
      uint32_t t = static_cast<uint32_t>(rng.UniformInt(j + 1));
      if (std::find(out.begin(), out.end(), t) == out.end()) {
        out.push_back(t);
      } else {
        out.push_back(j);
      }
    }
    return;
  }
  out.resize(n);
  std::iota(out.begin(), out.end(), 0u);
  for (uint32_t i = 0; i < k; ++i) {
    uint32_t j = i + static_cast<uint32_t>(rng.UniformInt(n - i));
    std::swap(out[i], out[j]);
  }
  out.resize(k);
}

bool AllZero(const std::vector<uint8_t>& mark) {
  return std::all_of(mark.begin(), mark.end(),
                     [](uint8_t m) { return m == 0; });
}

TEST(RngTest, SampleWithoutReplacementMatchesLinearScanFloyd) {
  std::vector<uint32_t> got;
  std::vector<uint32_t> want;
  std::vector<uint32_t> ks;
  for (uint64_t seed : {1u, 29u, 611u}) {
    for (uint32_t n = 1; n <= 2000; ++n) {
      // Every small fanout, the Floyd / Fisher–Yates boundary (3k < n)
      // and the take-everything boundary (k >= n).
      ks.clear();
      for (uint32_t k = 0; k <= 40; ++k) ks.push_back(k);
      for (uint32_t k : {n / 3, n / 3 + 1, n - 1, n, n + 1}) ks.push_back(k);
      if (n >= 3) ks.push_back(n / 3 - 1);
      Rng rng(seed * 7919 + n);
      Rng reference(seed * 7919 + n);
      // Odd n hands in a mark array shorter than n, even n an empty one:
      // both have to grow on the first Floyd call.
      std::vector<uint8_t> mark(n % 2 == 1 ? n / 2 : 0, 0);
      for (uint32_t k : ks) {
        rng.SampleWithoutReplacement(n, k, got, mark);
        LinearScanSampleWithoutReplacement(reference, n, k, want);
        ASSERT_EQ(got, want) << "seed " << seed << " n " << n << " k " << k;
        ASSERT_EQ(rng.Next(), reference.Next())
            << "seed " << seed << " n " << n << " k " << k;
        ASSERT_TRUE(AllZero(mark))
            << "seed " << seed << " n " << n << " k " << k;
        if (k * 3 < n) {
          ASSERT_GE(mark.size(), n) << "n " << n << " k " << k;
        }
      }
    }
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(VirtualClockTest, AdvanceAccumulates) {
  VirtualClock clock;
  clock.Advance(1.5);
  clock.Advance(0.5);
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
  clock.AdvanceTo(1.0);  // no-op, in the past
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
  clock.AdvanceTo(3.0);
  EXPECT_DOUBLE_EQ(clock.now(), 3.0);
}

TEST(TableTest, AsciiContainsHeaderAndRows) {
  Table t("Demo");
  t.SetHeader({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"beta", "2"});
  std::string ascii = t.ToAscii();
  EXPECT_NE(ascii.find("Demo"), std::string::npos);
  EXPECT_NE(ascii.find("alpha"), std::string::npos);
  EXPECT_NE(ascii.find("beta"), std::string::npos);
}

TEST(TableTest, CsvRoundTrip) {
  Table t("T");
  t.SetHeader({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(2.0, 0), "2");
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentSubmitStress) {
  // TSan target: external producer threads race Submit against the
  // workers draining the queue; the annotated Mutex/CondVar wrappers must
  // serialize queue_ and in_flight_ without losing a task or a wakeup.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  constexpr int kProducers = 8;
  constexpr int kTasksPerProducer = 250;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &count] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        pool.Submit(
            [&count] { count.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.Wait();
  EXPECT_EQ(count.load(), kProducers * kTasksPerProducer);
}

TEST(ThreadPoolTest, ConcurrentParallelForStress) {
  // Several external threads drive ParallelFor over the same pool at
  // once. Wait() observes the global in-flight count, so every caller
  // returns only after all outstanding chunks (its own included) ran.
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr size_t kRange = 512;
  std::vector<std::atomic<int>> hits(kRange);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &hits] {
      pool.ParallelFor(kRange, [&hits](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
    });
  }
  for (auto& t : callers) t.join();
  for (auto& h : hits) EXPECT_EQ(h.load(), kCallers);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedWork) {
  // Destruction with work still queued must neither drop tasks nor
  // deadlock: workers drain the queue after stop_ is raised. Iterated to
  // give TSan/helgrind-style schedules a chance to interleave.
  for (int iter = 0; iter < 50; ++iter) {
    std::atomic<int> count{0};
    {
      ThreadPool pool(2);
      for (int i = 0; i < 64; ++i) {
        pool.Submit(
            [&count] { count.fetch_add(1, std::memory_order_relaxed); });
      }
      // No Wait(): the destructor is responsible for the drain.
    }
    EXPECT_EQ(count.load(), 64);
  }
}

TEST(FlagsTest, ParsesKeyValueAndBools) {
  const char* argv[] = {"prog", "--dataset=reddit_s", "--epochs=12",
                        "--rate=0.25", "--verbose"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetString("dataset", ""), "reddit_s");
  EXPECT_EQ(flags.GetInt("epochs", 0), 12);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.0), 0.25);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetInt("missing", -1), -1);
}

TEST(FlagsTest, PositiveListSkipsInvalidEntries) {
  const char* argv[] = {"prog", "--threads=-2,4,,abc,0,3x,4294967296,8",
                        "--parts=4294967295"};
  Flags flags(3, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetPositiveList("threads", ""),
            (std::vector<uint32_t>{4, 8}));
  EXPECT_EQ(flags.GetPositiveList("parts", ""),
            (std::vector<uint32_t>{4294967295u}));
  EXPECT_EQ(flags.GetPositiveList("missing", "2,4"),
            (std::vector<uint32_t>{2, 4}));
  EXPECT_TRUE(flags.GetPositiveList("missing", "").empty());
}

// json::Parse builds what JsonLint only checks: one grammar, two modes.
TEST(JsonParseTest, BuildsValuesInDocumentOrder) {
  json::Value v;
  ASSERT_TRUE(json::Parse(
      R"({"n": -1.5e3, "s": "a\tb\u00e9", "b": false, "z": null,
          "arr": [1, true, {"k": "v"}]})", &v).ok());
  ASSERT_EQ(v.kind, json::Value::Kind::kObject);
  ASSERT_EQ(v.fields.size(), 5u);
  EXPECT_EQ(v.fields[0].first, "n");
  EXPECT_EQ(v.NumberOr("n", 0.0), -1500.0);
  // Two-character escapes decode; \u escapes are kept as written.
  EXPECT_EQ(v.StringOr("s", ""), "a\tb\\u00e9");
  EXPECT_EQ(v.Find("b")->kind, json::Value::Kind::kBool);
  EXPECT_FALSE(v.Find("b")->boolean);
  EXPECT_EQ(v.Find("z")->kind, json::Value::Kind::kNull);
  const json::Value* arr = v.Find("arr");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->items.size(), 3u);
  EXPECT_TRUE(arr->items[1].boolean);
  EXPECT_EQ(arr->items[2].StringOr("k", ""), "v");
  EXPECT_EQ(v.Find("missing"), nullptr);
  EXPECT_EQ(v.NumberOr("s", 7.0), 7.0);  // wrong kind falls back
}

// json::Escape is the one writer-side escaper: all 32 control
// characters leave it escaped and come back from Parse unchanged.
TEST(JsonParseTest, EscapeRoundTripsEveryControlCharacter) {
  std::string s;
  for (int c = 0; c < 0x20; ++c) s.push_back(static_cast<char>(c));
  s += "\"\\/ plain";
  const std::string escaped = json::Escape(s);
  for (const char c : escaped) EXPECT_GE(static_cast<unsigned char>(c), 0x20);
  json::Value v;
  ASSERT_TRUE(json::Parse("\"" + escaped + "\"", &v).ok()) << escaped;
  EXPECT_EQ(v.kind, json::Value::Kind::kString);
  EXPECT_EQ(v.str, s);
  // JSON has no inf/nan token; the number writer spells them 0.
  EXPECT_EQ(json::Number(0.25), "0.25");
  EXPECT_EQ(json::Number(std::numeric_limits<double>::infinity()), "0");
}

TEST(JsonParseTest, BuildingRejectsWhatCheckingRejects) {
  for (const char* doc : {"1-2", "1.2.3", "-", "\"\x01\"", "\"\\uZZZZ\"",
                          R"({"a": 1, "a": 2})"}) {
    json::Value v;
    EXPECT_FALSE(json::Parse(doc, &v).ok()) << doc;
    EXPECT_FALSE(json::Parse(doc, nullptr).ok()) << doc;
  }
}

}  // namespace
}  // namespace gnndm
