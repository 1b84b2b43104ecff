#include "common/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/json.h"
#include "common/telemetry.h"

namespace gnndm {
namespace flight_recorder {

namespace internal {
std::atomic<bool> g_enabled{true};
}  // namespace internal

namespace {

constexpr size_t kRingCapacity = 64;
constexpr size_t kMaxThreads = 128;
constexpr size_t kPathCapacity = 512;

/// One recorded event. Every field is a relaxed atomic so the dumper may
/// read a ring while its owner thread is still writing (the worst case
/// is a torn *event*, never a torn field or a TSan race); `name` points
/// into static storage by contract.
struct Event {
  std::atomic<const char*> name{nullptr};
  std::atomic<int64_t> t_ns{0};
  std::atomic<int64_t> batch{-1};
  std::atomic<uint32_t> kind{0};
};

/// Fixed per-thread ring. `head` counts total events ever recorded; the
/// live window is the last min(head, kRingCapacity) slots.
struct ThreadRing {
  Event events[kRingCapacity];
  std::atomic<uint64_t> head{0};
  std::atomic<int64_t> last_batch{-1};
};

/// Static pool: no heap anywhere on the record path, and rings survive
/// their owning threads so the dump covers joined workers.
ThreadRing g_rings[kMaxThreads];
std::atomic<uint32_t> g_claimed{0};
std::atomic<bool> g_dumped{false};
std::atomic<bool> g_handlers_installed{false};

/// Post-mortem path in a fixed buffer (readable from a signal handler).
char g_path[kPathCapacity] = {0};
std::atomic<bool> g_path_set{false};

/// One-time env configuration, run before main via static init. Events
/// recorded by earlier static initializers use the defaults; fine.
struct EnvInit {
  EnvInit() {
    if (const char* v = std::getenv("GNNDM_FLIGHT_RECORDER");
        v != nullptr && v[0] == '0' && v[1] == '\0') {
      internal::g_enabled.store(false, std::memory_order_relaxed);
    }
    if (const char* p = std::getenv("GNNDM_POSTMORTEM");
        p != nullptr && p[0] != '\0') {
      std::snprintf(g_path, sizeof(g_path), "%s", p);
      g_path_set.store(true, std::memory_order_release);
    }
  }
};
EnvInit g_env_init;

/// Claims a ring slot for the calling thread; -1 = dropped (pool full).
int ThreadSlot() {
  thread_local int slot = [] {
    const uint32_t s = g_claimed.fetch_add(1, std::memory_order_relaxed);
    return s < kMaxThreads ? static_cast<int>(s) : -1;
  }();
  return slot;
}

const char* KindName(uint32_t kind) {
  return static_cast<EventKind>(kind) == EventKind::kSpanBegin ? "begin"
                                                                : "end";
}

struct MergedEvent {
  int thread = 0;
  int64_t t_ns = 0;
  int64_t batch = -1;
  uint32_t kind = 0;
  const char* name = nullptr;
};

/// Collects the live window of every claimed ring. Racy against rings
/// still being written — acceptable by design for a crash artifact.
std::vector<MergedEvent> CollectEvents() {
  std::vector<MergedEvent> merged;
  const uint32_t threads = std::min<uint32_t>(
      g_claimed.load(std::memory_order_acquire), kMaxThreads);
  for (uint32_t t = 0; t < threads; ++t) {
    const ThreadRing& ring = g_rings[t];
    const uint64_t head = ring.head.load(std::memory_order_acquire);
    const uint64_t n = std::min<uint64_t>(head, kRingCapacity);
    for (uint64_t i = head - n; i < head; ++i) {
      const Event& e = ring.events[i % kRingCapacity];
      MergedEvent m;
      m.thread = static_cast<int>(t);
      m.name = e.name.load(std::memory_order_relaxed);
      m.t_ns = e.t_ns.load(std::memory_order_relaxed);
      m.batch = e.batch.load(std::memory_order_relaxed);
      m.kind = e.kind.load(std::memory_order_relaxed);
      if (m.name != nullptr) merged.push_back(m);
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const MergedEvent& a, const MergedEvent& b) {
                     return a.t_ns < b.t_ns;
                   });
  return merged;
}

}  // namespace

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

void Record(EventKind kind, const char* name, int64_t batch, int64_t t_ns) {
  if (!Enabled() || name == nullptr) return;
  const int slot = ThreadSlot();
  if (slot < 0) return;
  ThreadRing& ring = g_rings[slot];
  const uint64_t head = ring.head.load(std::memory_order_relaxed);
  Event& e = ring.events[head % kRingCapacity];
  e.name.store(name, std::memory_order_relaxed);
  e.t_ns.store(t_ns, std::memory_order_relaxed);
  e.batch.store(batch, std::memory_order_relaxed);
  e.kind.store(static_cast<uint32_t>(kind), std::memory_order_relaxed);
  ring.head.store(head + 1, std::memory_order_release);
  if (batch >= 0) ring.last_batch.store(batch, std::memory_order_relaxed);
}

void SetPostMortemPath(const std::string& path) {
  std::snprintf(g_path, sizeof(g_path), "%s", path.c_str());
  g_path_set.store(!path.empty(), std::memory_order_release);
}

std::string PostMortemPath() {
  if (!g_path_set.load(std::memory_order_acquire)) return std::string();
  return std::string(g_path);
}

std::string DumpJson(const std::string& reason) {
  std::string out = "{\n  \"reason\": \"";
  out += json::Escape(reason);
  out += "\",\n  \"threads\": [";
  const uint32_t threads = std::min<uint32_t>(
      g_claimed.load(std::memory_order_acquire), kMaxThreads);
  for (uint32_t t = 0; t < threads; ++t) {
    const ThreadRing& ring = g_rings[t];
    out += t == 0 ? "\n" : ",\n";
    out += "    {\"thread\": " + std::to_string(t) + ", \"last_batch\": " +
           std::to_string(ring.last_batch.load(std::memory_order_relaxed)) +
           ", \"recorded\": " +
           std::to_string(ring.head.load(std::memory_order_acquire)) + "}";
  }
  out += "\n  ],\n  \"events\": [";
  const std::vector<MergedEvent> events = CollectEvents();
  for (size_t i = 0; i < events.size(); ++i) {
    const MergedEvent& e = events[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"thread\": " + std::to_string(e.thread) + ", \"t_ns\": " +
           std::to_string(e.t_ns) + ", \"kind\": \"" + KindName(e.kind) +
           "\", \"name\": \"" + json::Escape(e.name) + "\", \"batch\": " +
           std::to_string(e.batch) + "}";
  }
  out += "\n  ],\n  \"metrics\": ";
  // Best-effort: a check can fire while the calling thread already holds
  // the registry mutex (e.g. inside an instrument constructor); blocking
  // there would hang the crash path, so try-lock and fall back to null.
  std::string metrics;
  if (telemetry::MetricsRegistry::Get().ToJsonTry(&metrics)) {
    out += metrics;
  } else {
    out += "null";
  }
  out += "\n}\n";
  return out;
}

bool DumpPostMortem(const std::string& reason) {
  if (!g_path_set.load(std::memory_order_acquire)) return false;
  if (g_dumped.exchange(true, std::memory_order_acq_rel)) return false;
  const std::string json = DumpJson(reason);
  std::FILE* f = std::fopen(g_path, "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = std::fclose(f) == 0 && written == json.size();
  return ok;
}

namespace {

/// Async-signal dump: fixed buffers, snprintf + write(2) only, no heap,
/// no locks, no sorting (events stay grouped per thread). Same schema as
/// DumpJson minus the metrics snapshot.
void SignalSafeDump(int signo) {
  if (!g_path_set.load(std::memory_order_relaxed)) return;
  if (g_dumped.exchange(true, std::memory_order_acq_rel)) return;
  const int fd = ::open(g_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  static char buf[1 << 16];
  size_t len = 0;
  const auto emit = [&](const char* fmt, auto... args) {
    if (len + 256 > sizeof(buf)) {
      (void)::write(fd, buf, len);
      len = 0;
    }
    const int n =
        std::snprintf(buf + len, sizeof(buf) - len, fmt, args...);
    if (n > 0) len += static_cast<size_t>(n);
  };
  emit("{\n  \"reason\": \"fatal signal %d\",\n  \"threads\": [", signo);
  const uint32_t threads = std::min<uint32_t>(
      g_claimed.load(std::memory_order_relaxed), kMaxThreads);
  for (uint32_t t = 0; t < threads; ++t) {
    emit("%s\n    {\"thread\": %u, \"last_batch\": %lld, \"recorded\": "
         "%llu}",
         t == 0 ? "" : ",", t,
         static_cast<long long>(
             g_rings[t].last_batch.load(std::memory_order_relaxed)),
         static_cast<unsigned long long>(
             g_rings[t].head.load(std::memory_order_relaxed)));
  }
  emit("\n  ],\n  \"events\": [");
  bool first = true;
  for (uint32_t t = 0; t < threads; ++t) {
    const ThreadRing& ring = g_rings[t];
    const uint64_t head = ring.head.load(std::memory_order_relaxed);
    const uint64_t n = std::min<uint64_t>(head, kRingCapacity);
    for (uint64_t i = head - n; i < head; ++i) {
      const Event& e = ring.events[i % kRingCapacity];
      const char* name = e.name.load(std::memory_order_relaxed);
      if (name == nullptr) continue;
      emit("%s\n    {\"thread\": %u, \"t_ns\": %lld, \"kind\": \"%s\", "
           "\"name\": \"%s\", \"batch\": %lld}",
           first ? "" : ",", t,
           static_cast<long long>(e.t_ns.load(std::memory_order_relaxed)),
           KindName(e.kind.load(std::memory_order_relaxed)), name,
           static_cast<long long>(e.batch.load(std::memory_order_relaxed)));
      first = false;
    }
  }
  emit("\n  ],\n  \"metrics\": null\n}\n");
  if (len > 0) (void)::write(fd, buf, len);
  (void)::close(fd);
}

void FatalSignalHandler(int signo) {
  SignalSafeDump(signo);
  // SA_RESETHAND restored the default disposition; re-raise so the
  // process still dies with the original signal (core dumps intact).
  ::raise(signo);
}

}  // namespace

void InstallCrashHandlers() {
  if (g_handlers_installed.exchange(true, std::memory_order_acq_rel)) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = FatalSignalHandler;
  sa.sa_flags = SA_RESETHAND | SA_NODEFER;
  sigemptyset(&sa.sa_mask);
  for (const int signo : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT}) {
    (void)::sigaction(signo, &sa, nullptr);
  }
}

void ResetForTest() {
  const uint32_t threads = std::min<uint32_t>(
      g_claimed.load(std::memory_order_acquire), kMaxThreads);
  for (uint32_t t = 0; t < threads; ++t) {
    ThreadRing& ring = g_rings[t];
    ring.head.store(0, std::memory_order_relaxed);
    ring.last_batch.store(-1, std::memory_order_relaxed);
    for (Event& e : ring.events) {
      e.name.store(nullptr, std::memory_order_relaxed);
    }
  }
  g_dumped.store(false, std::memory_order_relaxed);
}

}  // namespace flight_recorder
}  // namespace gnndm
