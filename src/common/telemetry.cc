#include "common/telemetry.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <string>

#include "common/json.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/table.h"

namespace gnndm {
namespace telemetry {

namespace {

std::atomic<bool> g_enabled{true};

/// Round-robin per-thread shard assignment: the first call from a thread
/// claims the next slot, so up to kShards concurrent threads never share a
/// counter cache line.
uint32_t ThreadShard() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % Counter::kShards;
  return shard;
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

// --- AtomicDouble ----------------------------------------------------------

void AtomicDouble::Add(double v) {
  uint64_t expected = bits_.load(std::memory_order_relaxed);
  for (;;) {
    const uint64_t desired =
        std::bit_cast<uint64_t>(std::bit_cast<double>(expected) + v);
    if (bits_.compare_exchange_weak(expected, desired,
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

void AtomicDouble::Max(double v) {
  uint64_t expected = bits_.load(std::memory_order_relaxed);
  for (;;) {
    if (std::bit_cast<double>(expected) >= v) return;
    if (bits_.compare_exchange_weak(expected, std::bit_cast<uint64_t>(v),
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

double AtomicDouble::Value() const {
  return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
}

// --- Counter / Gauge -------------------------------------------------------

void Counter::Add(uint64_t n) {
  if (!Enabled()) return;
  shards_[ThreadShard()].value.fetch_add(n, std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
}

void Gauge::Set(int64_t v) {
  if (!Enabled()) return;
  value_.store(v, std::memory_order_relaxed);
}

void Gauge::Add(int64_t delta) {
  if (!Enabled()) return;
  value_.fetch_add(delta, std::memory_order_relaxed);
}

// --- Histogram -------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  GNNDM_CHECK(!bounds_.empty()) << "histogram needs at least one bound";
  for (size_t i = 1; i < bounds_.size(); ++i) {
    GNNDM_CHECK(bounds_[i] > bounds_[i - 1])
        << "histogram bounds must be strictly ascending";
  }
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double v) {
  if (!Enabled()) return;
  // Bucket i counts v <= bounds[i]: first bound >= v, overflow past the end.
  const size_t idx =
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.Add(v);
}

uint64_t Histogram::BucketCount(size_t i) const {
  GNNDM_CHECK(i <= bounds_.size());
  return buckets_[i].load(std::memory_order_relaxed);
}

double Histogram::Quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t total = Count();
  if (total == 0) return 0.0;
  // Rank of the target sample, 1-based; walk buckets until reached.
  const double rank = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    const uint64_t in_bucket = buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= rank) {
      if (i == bounds_.size()) return bounds_.back();  // overflow bucket
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = bounds_[i];
      const double within =
          (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
    }
    seen += in_bucket;
  }
  return bounds_.back();
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.Reset();
}

std::vector<double> LinearBuckets(double start, double width, size_t count) {
  std::vector<double> bounds(count);
  for (size_t i = 0; i < count; ++i) bounds[i] = start + width * i;
  return bounds;
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count) {
  std::vector<double> bounds(count);
  double v = start;
  for (size_t i = 0; i < count; ++i, v *= factor) bounds[i] = v;
  return bounds;
}

// --- MetricsRegistry -------------------------------------------------------

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked: lives
  return *registry;  // for the process so handles never dangle at exit
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::string MetricsRegistry::ToJson() const {
  MutexLock lock(mu_);
  return ToJsonLocked();
}

bool MetricsRegistry::ToJsonTry(std::string* out) const {
  if (!mu_.TryLock()) return false;
  *out = ToJsonLocked();
  mu_.Unlock();
  return true;
}

std::string MetricsRegistry::ToJsonLocked() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json::Escape(name) +
           "\": " + std::to_string(c->Value());
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json::Escape(name) +
           "\": " + std::to_string(g->Value());
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json::Escape(name) + "\": {\"count\": " +
           std::to_string(h->Count()) +
           ", \"sum\": " + json::Number(h->Sum()) +
           ", \"p50\": " + json::Number(h->Quantile(0.5)) +
           ", \"p90\": " + json::Number(h->Quantile(0.9)) +
           ", \"p99\": " + json::Number(h->Quantile(0.99)) +
           ", \"bounds\": [";
    for (size_t i = 0; i < h->bounds().size(); ++i) {
      if (i > 0) out += ", ";
      out += json::Number(h->bounds()[i]);
    }
    out += "], \"buckets\": [";
    for (size_t i = 0; i <= h->bounds().size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h->BucketCount(i));
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

Table MetricsRegistry::ToTable(bool skip_zero) const {
  MutexLock lock(mu_);
  Table table("telemetry metrics");
  table.SetHeader({"metric", "type", "value", "p50", "p90", "p99"});
  for (const auto& [name, c] : counters_) {
    const uint64_t v = c->Value();
    if (skip_zero && v == 0) continue;
    table.AddRow({name, "counter", std::to_string(v), "", "", ""});
  }
  for (const auto& [name, g] : gauges_) {
    const int64_t v = g->Value();
    if (skip_zero && v == 0) continue;
    table.AddRow({name, "gauge", std::to_string(v), "", "", ""});
  }
  for (const auto& [name, h] : histograms_) {
    if (skip_zero && h->Count() == 0) continue;
    table.AddRow({name, "histogram", std::to_string(h->Count()),
                  Table::Num(h->Quantile(0.5), 4),
                  Table::Num(h->Quantile(0.9), 4),
                  Table::Num(h->Quantile(0.99), 4)});
  }
  return table;
}

Counter& GetCounter(const std::string& name) {
  return MetricsRegistry::Get().GetCounter(name);
}

Gauge& GetGauge(const std::string& name) {
  return MetricsRegistry::Get().GetGauge(name);
}

Histogram& GetHistogram(const std::string& name, std::vector<double> bounds) {
  return MetricsRegistry::Get().GetHistogram(name, std::move(bounds));
}

// --- Tracer ----------------------------------------------------------------

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // leaked for process lifetime
  return *tracer;
}

Tracer::ThreadBuffer& Tracer::LocalBuffer() {
  thread_local ThreadBuffer* cached = nullptr;
  if (cached == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    MutexLock lock(mu_);
    owned->track = static_cast<uint32_t>(buffers_.size());
    buffers_.push_back(std::move(owned));
    cached = buffers_.back().get();
  }
  return *cached;
}

void Tracer::Start() {
  {
    MutexLock lock(mu_);
    for (auto& buffer : buffers_) {
      MutexLock events_lock(buffer->mu);
      buffer->events.clear();
    }
  }
  t0_ns_.store(SteadyNowNs(), std::memory_order_release);
  active_.store(true, std::memory_order_release);
}

void Tracer::Stop() { active_.store(false, std::memory_order_release); }

double Tracer::SinceStart(int64_t steady_ns) const {
  return static_cast<double>(steady_ns -
                             t0_ns_.load(std::memory_order_acquire)) *
         1e-9;
}

void Tracer::AddWallSpan(const char* name, double begin_s, double dur_s,
                         int64_t batch) {
  if (!Enabled() || !active()) return;
  ThreadBuffer& buffer = LocalBuffer();
  MutexLock lock(buffer.mu);
  buffer.events.push_back(
      {name, ClockDomain::kWall, begin_s, dur_s, buffer.track, batch});
}

void Tracer::AddVirtualSpan(const char* name, double begin_s, double dur_s,
                            uint32_t lane, int64_t batch) {
  if (!Enabled() || !active()) return;
  ThreadBuffer& buffer = LocalBuffer();
  MutexLock lock(buffer.mu);
  buffer.events.push_back(
      {name, ClockDomain::kVirtual, begin_s, dur_s, lane, batch});
}

void Tracer::AddCounterSample(const char* name, double value) {
  if (!Enabled() || !active()) return;
  ThreadBuffer& buffer = LocalBuffer();
  MutexLock lock(buffer.mu);
  TraceEvent e;
  e.name = name;
  e.domain = ClockDomain::kWall;
  e.ts = SinceStart(SteadyNowNs());
  e.track = buffer.track;
  e.counter = true;
  e.value = value;
  buffer.events.push_back(std::move(e));
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<TraceEvent> out;
  MutexLock lock(mu_);
  for (const auto& buffer : buffers_) {
    MutexLock events_lock(buffer->mu);
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
  return out;
}

double Tracer::SpanSeconds(const std::string& name,
                           ClockDomain domain) const {
  double total = 0.0;
  for (const TraceEvent& e : Snapshot()) {
    if (e.domain == domain && e.name == name) total += e.dur;
  }
  return total;
}

uint64_t Tracer::SpanCount(const std::string& name,
                           ClockDomain domain) const {
  uint64_t count = 0;
  for (const TraceEvent& e : Snapshot()) {
    if (e.domain == domain && e.name == name) ++count;
  }
  return count;
}

std::string Tracer::ToChromeJson() const {
  // Wall spans live in trace process 1 (one tid per recording thread),
  // virtual spans in process 2 (one tid per pipeline resource lane), so
  // Perfetto renders the two time domains as separate track groups.
  // The separator goes *between* records (written before every record
  // but the first), so a trace with no events is well formed too.
  std::string out = "{\"traceEvents\": [";
  const char* separator = "\n  ";
  const auto begin_record = [&out, &separator] {
    out += separator;
    separator = ",\n  ";
  };
  begin_record();
  out +=
      "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
      "\"process_name\", \"args\": {\"name\": \"wall clock (cpu)\"}}";
  begin_record();
  out +=
      "{\"ph\": \"M\", \"pid\": 2, \"tid\": 0, \"name\": "
      "\"process_name\", \"args\": {\"name\": \"virtual clock (simulated "
      "device/pipeline)\"}}";
  const char* lane_names[] = {"BP (cpu sampler)", "DT (pcie extract+load)",
                              "NN (gpu compute)", "DIST (sync rounds)"};
  for (uint32_t lane = 0; lane < 4; ++lane) {
    begin_record();
    out += "{\"ph\": \"M\", \"pid\": 2, \"tid\": " + std::to_string(lane) +
           ", \"name\": \"thread_name\", \"args\": {\"name\": \"" +
           std::string(lane_names[lane]) + "\"}}";
  }
  for (const TraceEvent& e : Snapshot()) {
    const bool wall = e.domain == ClockDomain::kWall;
    begin_record();
    if (e.counter) {
      // Chrome counter sample: the value timeline (e.g. reorder-ring
      // occupancy) renders as a stacked area track in Perfetto.
      out += "{\"name\": \"" + json::Escape(e.name) +
             "\", \"cat\": \"counter\", \"ph\": \"C\", \"ts\": " +
             json::Number(e.ts * 1e6) + ", \"pid\": " + (wall ? "1" : "2") +
             ", \"tid\": " + std::to_string(e.track) +
             ", \"args\": {\"value\": " + json::Number(e.value) + "}";
    } else {
      out += "{\"name\": \"" + json::Escape(e.name) + "\", \"cat\": \"" +
             (wall ? "wall" : "virtual") + "\", \"ph\": \"X\", \"ts\": " +
             json::Number(e.ts * 1e6) +
             ", \"dur\": " + json::Number(e.dur * 1e6) +
             ", \"pid\": " + (wall ? "1" : "2") +
             ", \"tid\": " + std::to_string(e.track);
      if (e.batch >= 0) {
        out += ", \"args\": {\"batch\": " + std::to_string(e.batch) + "}";
      }
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  const std::string json = ToChromeJson();
  GNNDM_RETURN_IF_ERROR(JsonLint(json));
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::NotFound("cannot open trace file " + path);
  }
  out << json;
  if (!out.good()) return Status::Internal("short write to " + path);
  return Status::Ok();
}

// --- JsonLint --------------------------------------------------------------

Status JsonLint(const std::string& text) { return json::Parse(text, nullptr); }

}  // namespace telemetry
}  // namespace gnndm
