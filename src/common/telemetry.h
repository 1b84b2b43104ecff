#ifndef GNNDM_COMMON_TELEMETRY_H_
#define GNNDM_COMMON_TELEMETRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/flight_recorder.h"
#include "common/status.h"
#include "common/table.h"

namespace gnndm {
namespace telemetry {

/// Process-wide observability layer for the training pipeline:
///
///  - a MetricsRegistry of counters, gauges, and fixed-bucket histograms
///    whose hot path is a relaxed atomic add on a per-thread shard — safe
///    and cheap to call from any thread, including pool workers and the
///    async-loader producer;
///  - a span Tracer that records begin/duration events against either the
///    wall clock (real CPU work) or the simulated VirtualClock timeline
///    (device/pipeline), and serializes them to Chrome trace-event JSON
///    loadable in chrome://tracing or https://ui.perfetto.dev;
///  - ScopedSpan, the one timer of a pipeline stage: its two clock
///    readings feed the tracer, the crash flight recorder and the stage's
///    stall-attribution field;
///  - aligned-table / JSON renderers for end-of-run reporting.
///
/// Metric names follow `subsystem.name` (e.g. `transfer.bytes`,
/// `loader.queue_depth`, `parallel.chunks`); see DESIGN.md §9.
///
/// Determinism contract: telemetry only *observes*. It never touches an
/// RNG stream, reorders work, or feeds values back into computation, so
/// training output is byte-identical with telemetry enabled, disabled, or
/// compiled out, at any thread count.
///
/// Disabled path: when `SetEnabled(false)` has been called (or the build
/// defines GNNDM_TELEMETRY_DISABLED, which folds Enabled() to a constant
/// false), every instrument reduces to one relaxed load and a branch, and
/// performs no allocation — asserted by telemetry_test.

#if defined(GNNDM_TELEMETRY_DISABLED)
constexpr bool Enabled() { return false; }
inline void SetEnabled(bool) {}
#else
/// True unless telemetry has been switched off. Relaxed read; safe from
/// any thread.
bool Enabled();
/// Flips the process-wide telemetry switch (default: on).
void SetEnabled(bool enabled);
#endif

/// Nanoseconds on the steady clock: the one clock behind every wall span,
/// flight-recorder event and trace counter sample.
inline int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Lock-free double accumulator built on a uint64 bit-cast CAS loop, so it
/// works on toolchains without std::atomic<double>::fetch_add and stays
/// TSan-clean. Used by Histogram sums and the ParallelFor imbalance probe.
class AtomicDouble {
 public:
  void Add(double v);
  /// Raises the stored value to `v` if `v` is greater.
  void Max(double v);
  double Value() const;
  void Reset() { bits_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> bits_{0};  // bit pattern of a double, initially 0.0
};

/// Monotonic counter with sharded per-thread accumulation: Add() is a
/// relaxed fetch_add on the calling thread's shard, so concurrent
/// increments from pool workers never contend on one cache line. Value()
/// sums the shards (racy reads are fine for reporting).
class Counter {
 public:
  static constexpr size_t kShards = 16;

  void Add(uint64_t n);
  void Increment() { Add(1); }
  uint64_t Value() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard shards_[kShards];
};

/// Last-value instrument (queue depth, configured capacity).
class Gauge {
 public:
  void Set(int64_t v);
  void Add(int64_t delta);
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram for non-negative samples. Bucket i counts
/// samples <= bounds[i]; one extra overflow bucket counts the rest.
/// Observe() is two relaxed atomic adds plus a CAS-loop double add.
class Histogram {
 public:
  /// `bounds` are strictly ascending upper bounds; must be non-empty.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.Value(); }
  /// Approximate quantile (q in [0,1]) by linear interpolation inside the
  /// owning bucket. Empty histogram -> 0. Samples in the overflow bucket
  /// are attributed to the largest finite bound.
  double Quantile(double q) const;
  const std::vector<double>& bounds() const { return bounds_; }
  uint64_t BucketCount(size_t i) const;
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  AtomicDouble sum_;
};

/// Evenly spaced bucket bounds: {start, start+width, ...} (count bounds).
std::vector<double> LinearBuckets(double start, double width, size_t count);
/// Geometric bucket bounds: {start, start*factor, ...} (count bounds).
std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count);

/// Process-wide name -> instrument registry. Instruments are created on
/// first use and live for the process (returned references are stable);
/// Reset() zeroes values but never invalidates handles.
class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  Counter& GetCounter(const std::string& name) GNNDM_EXCLUDES(mu_);
  Gauge& GetGauge(const std::string& name) GNNDM_EXCLUDES(mu_);
  /// `bounds` are used only on first creation of `name`.
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> bounds) GNNDM_EXCLUDES(mu_);

  /// Zeroes every registered instrument (handles stay valid). Benches use
  /// this between configurations so snapshots are per-run.
  void Reset() GNNDM_EXCLUDES(mu_);

  /// JSON object {"counters":{...},"gauges":{...},"histograms":{...}};
  /// histograms carry count/sum/p50/p90/p99 plus raw bucket counts.
  std::string ToJson() const GNNDM_EXCLUDES(mu_);

  /// Non-blocking ToJson for crash paths (the flight-recorder dump): a
  /// GNNDM_CHECK can fire while the calling thread already holds the
  /// registry mutex (e.g. inside Histogram's bounds checks), where a
  /// blocking snapshot would self-deadlock. Returns false without
  /// touching `out` when the mutex is contended.
  bool ToJsonTry(std::string* out) const GNNDM_EXCLUDES(mu_);

  /// Aligned end-of-run table (one row per instrument), zero-valued
  /// instruments omitted when `skip_zero`.
  Table ToTable(bool skip_zero = true) const GNNDM_EXCLUDES(mu_);

 private:
  MetricsRegistry() = default;

  std::string ToJsonLocked() const GNNDM_REQUIRES(mu_);

  mutable Mutex mu_{"metrics.registry_mu"};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      GNNDM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      GNNDM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GNNDM_GUARDED_BY(mu_);
};

/// Shorthand accessors for instrument handles. Typical hot-path use binds
/// the reference once:
///   static telemetry::Counter& bytes = telemetry::GetCounter("transfer.bytes");
Counter& GetCounter(const std::string& name);
Gauge& GetGauge(const std::string& name);
Histogram& GetHistogram(const std::string& name, std::vector<double> bounds);

/// The two time domains a span can live in (ISSUE: real CPU work vs the
/// simulated device/pipeline timeline). Serialized as separate trace
/// processes so Perfetto shows them as distinct tracks.
enum class ClockDomain { kWall, kVirtual };

/// Named lanes ("threads") of the virtual-clock trace process, mirroring
/// the three pipeline resources plus the distributed round barrier.
enum VirtualLane : uint32_t {
  kLaneBp = 0,    ///< CPU sampler / batch preparation
  kLaneDt = 1,    ///< PCIe (extract + load)
  kLaneNn = 2,    ///< GPU compute
  kLaneDist = 3,  ///< distributed synchronous rounds
};

/// One recorded span (begin + duration, Chrome "X" complete event) or —
/// when `counter` is set — one counter sample (Chrome "C" event: `dur`
/// is unused and `value` carries the sample).
struct TraceEvent {
  std::string name;
  ClockDomain domain = ClockDomain::kWall;
  double ts = 0.0;   ///< seconds since trace start (wall) or virtual origin
  double dur = 0.0;  ///< seconds
  uint32_t track = 0;  ///< wall: per-thread index; virtual: VirtualLane
  int64_t batch = -1;  ///< optional batch index (emitted as args.batch)
  bool counter = false;  ///< "C" counter sample instead of an "X" span
  double value = 0.0;    ///< counter sample value (counter events only)
};

/// Records spans into per-thread buffers while active. Use the singleton:
/// `Tracer::Get().Start()` before the workload, `WriteChromeTrace()` after.
/// Recording when inactive is a no-op (a TRACE_SPAN then feeds only the
/// flight recorder and its sink). Start() clears previously recorded
/// events.
class Tracer {
 public:
  static Tracer& Get();

  void Start() GNNDM_EXCLUDES(mu_);
  void Stop();
  bool active() const { return active_.load(std::memory_order_acquire); }

  /// A SteadyNowNs() reading as trace time: seconds since Start().
  double SinceStart(int64_t steady_ns) const;

  /// Records a wall-domain span [begin_s, begin_s + dur_s] on the calling
  /// thread's track. No-op when inactive.
  void AddWallSpan(const char* name, double begin_s, double dur_s,
                   int64_t batch = -1) GNNDM_EXCLUDES(mu_);

  /// Records a virtual-domain span on `lane` (see VirtualLane). Virtual
  /// timestamps are seconds on the simulation's own axis; callers offset
  /// them by their cumulative virtual time so epochs concatenate.
  void AddVirtualSpan(const char* name, double begin_s, double dur_s,
                      uint32_t lane, int64_t batch = -1) GNNDM_EXCLUDES(mu_);

  /// Records a wall-domain counter sample ("C" event) now, on the
  /// calling thread's track — e.g. the reorder-ring occupancy timeline
  /// that gnndm_traceq reconstructs. No-op when inactive.
  void AddCounterSample(const char* name, double value) GNNDM_EXCLUDES(mu_);

  /// All recorded events; per-thread recording order is preserved (buffers
  /// are concatenated thread by thread).
  std::vector<TraceEvent> Snapshot() const GNNDM_EXCLUDES(mu_);

  /// Sum of durations / number of spans named `name` in `domain` — the
  /// aggregation the EpochStats reconciliation test checks against.
  double SpanSeconds(const std::string& name, ClockDomain domain) const;
  uint64_t SpanCount(const std::string& name, ClockDomain domain) const;

  /// Chrome trace-event JSON ({"traceEvents":[...]}) with wall spans on
  /// pid 1 and virtual spans on pid 2, lanes named via metadata events.
  std::string ToChromeJson() const;

  /// Writes ToChromeJson() to `path`; the serialized text is JsonLint-ed
  /// first so a malformed trace can never be written silently.
  [[nodiscard]] Status WriteChromeTrace(const std::string& path) const;

 private:
  struct ThreadBuffer {
    Mutex mu{"tracer.buffer_mu"};
    std::vector<TraceEvent> events GNNDM_GUARDED_BY(mu);
    uint32_t track = 0;
  };

  Tracer() = default;
  ThreadBuffer& LocalBuffer() GNNDM_EXCLUDES(mu_);

  std::atomic<bool> active_{false};
  std::atomic<int64_t> t0_ns_{0};  // steady-clock origin of wall timestamps
  mutable Mutex mu_{"tracer.registry_mu"};
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ GNNDM_GUARDED_BY(mu_);
};

/// RAII wall-clock span, and the only timer of a pipeline stage. It
/// reads SteadyNowNs() once at construction and once at scope exit, and
/// those two readings are all of the stage's timing:
///  - the flight recorder's begin/end events (common/flight_recorder.h),
///    recorded whenever the recorder is on, so a post-mortem shows the
///    last spans of each thread even in runs that never traced;
///  - the tracer's wall span, while telemetry is on and the tracer runs;
///  - `*sink`, which receives the span's seconds at scope exit — the
///    same double as the trace event's duration — and is written only
///    while telemetry is on. Stall attribution's wall fields are sinks.
/// With all three off the span reads no clock. It never allocates
/// outside the tracer, and names must be string literals (the recorder
/// keeps the pointer).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t batch = -1,
                      double* sink = nullptr)
      : name_(name), batch_(batch) {
    if (Enabled()) {
      sink_ = sink;
      traced_ = Tracer::Get().active();
    }
    recorded_ = flight_recorder::Enabled();
    if (sink_ == nullptr && !traced_ && !recorded_) return;
    begin_ns_ = SteadyNowNs();
    if (recorded_) {
      flight_recorder::Record(flight_recorder::EventKind::kSpanBegin, name_,
                              batch_, begin_ns_);
    }
  }
  ~ScopedSpan() {
    if (sink_ == nullptr && !traced_ && !recorded_) return;
    const int64_t end_ns = SteadyNowNs();
    const double seconds = static_cast<double>(end_ns - begin_ns_) * 1e-9;
    if (sink_ != nullptr) *sink_ = seconds;
    if (traced_) {
      Tracer& tracer = Tracer::Get();
      tracer.AddWallSpan(name_, tracer.SinceStart(begin_ns_), seconds,
                         batch_);
    }
    if (recorded_) {
      flight_recorder::Record(flight_recorder::EventKind::kSpanEnd, name_,
                              batch_, end_ns);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  int64_t batch_;
  double* sink_ = nullptr;
  bool traced_ = false;
  bool recorded_ = false;
  int64_t begin_ns_ = 0;
};

/// JSON well-formedness check (syntax only, no schema): json::Parse's
/// grammar (src/common/json.h), with no value built. Guards every JSON
/// artifact the telemetry layer writes and is reused by tests/CI.
[[nodiscard]] Status JsonLint(const std::string& text);

}  // namespace telemetry
}  // namespace gnndm

#define GNNDM_TELEMETRY_CONCAT2(a, b) a##b
#define GNNDM_TELEMETRY_CONCAT(a, b) GNNDM_TELEMETRY_CONCAT2(a, b)

/// Scoped wall-clock span: TRACE_SPAN("trainer.epoch"),
/// TRACE_SPAN("trainer.transfer", batch_index), or with a sink for the
/// seconds, TRACE_SPAN("trainer.nn", batch_index, &record.wall_compute).
#define TRACE_SPAN(...)                                      \
  ::gnndm::telemetry::ScopedSpan GNNDM_TELEMETRY_CONCAT(     \
      gnndm_scoped_span_, __LINE__)(__VA_ARGS__)

#endif  // GNNDM_COMMON_TELEMETRY_H_
