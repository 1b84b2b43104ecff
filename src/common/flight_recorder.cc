#include "common/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/function_ref.h"
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

/// Writes `v` in decimal to `out` (room for 20 digits), unterminated;
/// returns the digit count.
size_t Decimal(uint64_t v, char* out) {
  size_t n = 1;
  for (uint64_t rest = v / 10; rest != 0; rest /= 10) ++n;
  for (size_t i = n; i-- > 0; v /= 10) out[i] = static_cast<char>('0' + v % 10);
  return n;
}

/// The one post-mortem writer, run by DumpJson, DumpPostMortem and the
/// fatal-signal handler alike, so it allocates nothing, takes no lock and
/// skips stdio: bytes collect in a fixed buffer that `sink` receives a
/// piece at a time. The document is the reason, each claimed ring's last
/// batch and event count, the rings' live windows merged in time order,
/// and `metrics` (JSON text) as it is, or null when it is null; every
/// string is escaped. A ring is already in time order, so the merge takes
/// the earliest next event of any ring, ties to the lower thread. Rings
/// still being written are read racily — acceptable by design for a
/// crash artifact.
void WriteDump(FunctionRef<void(const char*, size_t)> sink,
               const char* reason, const char* metrics) {
  char buf[1024];
  size_t len = 0;
  const auto raw = [&](const char* bytes, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (len == sizeof(buf)) {
        sink(buf, len);
        len = 0;
      }
      buf[len++] = bytes[i];
    }
  };
  const auto text = [&](const char* s) { raw(s, std::strlen(s)); };
  const auto quoted = [&](const char* s) {
    char escaped[6];
    text("\"");
    for (; *s != '\0'; ++s) raw(escaped, json::EscapeChar(*s, escaped));
    text("\"");
  };
  // `key` (the text up to the value) and a whole number.
  const auto field = [&](const char* key, int64_t v) {
    text(key);
    if (v < 0) text("-");
    char digits[20];
    raw(digits, Decimal(v < 0 ? 0 - static_cast<uint64_t>(v)
                              : static_cast<uint64_t>(v),
                        digits));
  };

  text("{\n  \"reason\": ");
  quoted(reason);
  text(",\n  \"threads\": [");
  const uint32_t threads = std::min<uint32_t>(
      g_claimed.load(std::memory_order_acquire), kMaxThreads);
  // Ring t's unwritten live window is [next[t], head[t]).
  uint64_t next[kMaxThreads] = {};
  uint64_t head[kMaxThreads] = {};
  for (uint32_t t = 0; t < threads; ++t) {
    const ThreadRing& ring = g_rings[t];
    head[t] = ring.head.load(std::memory_order_acquire);
    next[t] = head[t] - std::min<uint64_t>(head[t], kRingCapacity);
    field(t == 0 ? "\n    {\"thread\": " : ",\n    {\"thread\": ", t);
    field(", \"last_batch\": ",
          ring.last_batch.load(std::memory_order_relaxed));
    field(", \"recorded\": ", static_cast<int64_t>(head[t]));
    text("}");
  }
  text("\n  ],\n  \"events\": [");
  bool first = true;
  for (;;) {
    uint32_t earliest = threads;
    int64_t earliest_ns = 0;
    for (uint32_t t = 0; t < threads; ++t) {
      if (next[t] == head[t]) continue;
      const int64_t t_ns = g_rings[t]
                               .events[next[t] % kRingCapacity]
                               .t_ns.load(std::memory_order_relaxed);
      if (earliest == threads || t_ns < earliest_ns) {
        earliest = t;
        earliest_ns = t_ns;
      }
    }
    if (earliest == threads) break;
    const Event& e =
        g_rings[earliest].events[next[earliest]++ % kRingCapacity];
    const char* name = e.name.load(std::memory_order_relaxed);
    if (name == nullptr) continue;
    field(first ? "\n    {\"thread\": " : ",\n    {\"thread\": ", earliest);
    field(", \"t_ns\": ", e.t_ns.load(std::memory_order_relaxed));
    text(", \"kind\": ");
    quoted(KindName(e.kind.load(std::memory_order_relaxed)));
    text(", \"name\": ");
    quoted(name);
    field(", \"batch\": ", e.batch.load(std::memory_order_relaxed));
    text("}");
    first = false;
  }
  text("\n  ],\n  \"metrics\": ");
  text(metrics != nullptr ? metrics : "null");
  text("\n}\n");
  sink(buf, len);
}

/// The metrics snapshot a dump carries, held in `*storage`, or null.
/// Best-effort: a check can fire while the calling thread already holds
/// the registry mutex (e.g. inside an instrument constructor); blocking
/// there would hang the crash path, so try-lock and fall back to null.
const char* MetricsOrNull(std::string* storage) {
  return telemetry::MetricsRegistry::Get().ToJsonTry(storage)
             ? storage->c_str()
             : nullptr;
}

/// Writes the dump to the post-mortem path, at most once per process.
/// False when no path is configured, a dump was already written, or a
/// write failed.
bool WritePostMortem(const char* reason, const char* metrics) {
  if (!g_path_set.load(std::memory_order_acquire)) return false;
  if (g_dumped.exchange(true, std::memory_order_acq_rel)) return false;
  const int fd = ::open(g_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  bool ok = true;
  WriteDump(
      [fd, &ok](const char* data, size_t n) {
        ok = ok && ::write(fd, data, n) == static_cast<ssize_t>(n);
      },
      reason, metrics);
  return ::close(fd) == 0 && ok;
}

void FatalSignalHandler(int signo) {
  // "fatal signal <signo>", built without allocating or stdio.
  char reason[40] = "fatal signal ";
  const size_t prefix = std::strlen(reason);
  reason[prefix + Decimal(static_cast<uint64_t>(signo), reason + prefix)] =
      '\0';
  WritePostMortem(reason, /*metrics=*/nullptr);
  // SA_RESETHAND restored the default disposition; re-raise so the
  // process still dies with the original signal (core dumps intact).
  ::raise(signo);
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
  std::string metrics;
  std::string out;
  WriteDump([&out](const char* data, size_t n) { out.append(data, n); },
            reason.c_str(), MetricsOrNull(&metrics));
  return out;
}

bool DumpPostMortem(const std::string& reason) {
  if (!g_path_set.load(std::memory_order_acquire)) return false;
  std::string metrics;
  return WritePostMortem(reason.c_str(), MetricsOrNull(&metrics));
}

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
