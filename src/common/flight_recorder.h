#ifndef GNNDM_COMMON_FLIGHT_RECORDER_H_
#define GNNDM_COMMON_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace gnndm {
namespace flight_recorder {

/// Always-on crash flight recorder: every thread keeps its last
/// kRingCapacity span begin/end events in a fixed ring so a GNNDM_CHECK
/// failure or fatal signal can dump "what was the pipeline doing" to a
/// post-mortem file. telemetry::ScopedSpan is its only writer and hands
/// it the span's own clock readings, so the recorder reads no clock.
///
/// Design constraints (DESIGN.md §14):
///  - Lock-free and allocation-free on the record path: rings live in a
///    static pool; a thread claims a slot with one fetch_add on first
///    use and then writes only its own ring (plain relaxed stores plus a
///    release head bump). Claimed slots outlive their threads, so the
///    dump still shows what a joined worker was doing before the crash.
///  - `name` arguments must point to static storage (string literals):
///    the ring stores the pointer, never a copy.
///  - Pure observation: recording never feeds values back into training,
///    so output stays byte-identical with the recorder on or off.
///  - Dumping is gated on a configured post-mortem path (explicit
///    SetPostMortemPath or the GNNDM_POSTMORTEM env var); recording is
///    on by default and can be switched off with GNNDM_FLIGHT_RECORDER=0
///    or SetEnabled(false).

enum class EventKind : uint32_t {
  kSpanBegin = 0,
  kSpanEnd = 1,
};

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// Relaxed read of the process-wide recording switch; safe and cheap
/// from any thread (this is the hot-path gate in telemetry::ScopedSpan).
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
void SetEnabled(bool enabled);

/// Records one span event into the calling thread's ring: `name` must
/// have static storage duration, `batch` is the span's batch index (-1
/// when not batch-scoped; an index >= 0 also becomes the ring's
/// last-seen batch), and `t_ns` is the span's telemetry::SteadyNowNs()
/// reading. Never allocates, never blocks; silently drops once more than
/// kMaxThreads distinct threads have recorded.
void Record(EventKind kind, const char* name, int64_t batch, int64_t t_ns);

/// Post-mortem destination. Empty path disables dumping (the default
/// unless GNNDM_POSTMORTEM is set). The path is copied into a fixed
/// buffer so the fatal-signal handler can read it without allocating.
void SetPostMortemPath(const std::string& path);
std::string PostMortemPath();

/// Serializes the merged rings (all threads, in time order), the
/// per-thread last-batch markers, and a best-effort metrics snapshot to
/// a JSON document. Always well-formed (flight_recorder_test JsonLints
/// it); `metrics` is null when the registry mutex was contended. One
/// allocation-free writer produces this document on every path.
std::string DumpJson(const std::string& reason);

/// Writes DumpJson(reason) to the configured post-mortem path. Returns
/// false when no path is configured, when a dump was already written,
/// or on I/O failure. Re-entrant calls (a crash inside the dump) are
/// dropped. Called from the GNNDM_CHECK failure path; safe to call
/// manually before an orderly shutdown too.
bool DumpPostMortem(const std::string& reason);

/// Installs fatal-signal handlers (SEGV/BUS/ILL/FPE/ABRT) that write
/// the same document with reason "fatal signal <n>" and `"metrics":
/// null` (the handler takes no lock) to the post-mortem path and then
/// re-raise. Call once from main(); a no-op when called again.
void InstallCrashHandlers();

/// Test hook: zeroes every ring and the dumped-once latch so a test can
/// assert against exactly its own events. Thread slots stay claimed.
void ResetForTest();

}  // namespace flight_recorder
}  // namespace gnndm

#endif  // GNNDM_COMMON_FLIGHT_RECORDER_H_
