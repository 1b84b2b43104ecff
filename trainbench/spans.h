#ifndef TRAINBENCH_SPANS_H_
#define TRAINBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace trainbench {

/// In-memory span recorder for the traced run. The benchmark's own code
/// opens one span around each public call it makes into a gnndm layer;
/// nothing inside the library is instrumented. Spans nest on the one
/// thread that records them (the replay is single-threaded on the
/// benchmark side), so a span's parent is whichever span was open when
/// it began. Spans stay in memory and are serialized once, at the end.
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";  ///< string literal: layer.call, e.g. nn.forward
    double start = 0.0;     ///< seconds since the recorder was created
    double end = 0.0;
    int64_t parent = -1;    ///< index into spans(), -1 for a root
    int64_t batch = -1;     ///< batch index within its epoch, -1 if none
  };

  SpanRecorder();

  /// Opens a span; returns its index. Ignored (returns -1) while paused.
  int64_t Begin(const char* name, int64_t batch = -1);
  void End(int64_t id);

  /// While paused, Begin/End record nothing (warm-up passes).
  void set_paused(bool paused) { paused_ = paused; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the time covered by direct children. Children never
  /// overlap each other: they are recorded on one thread.
  std::vector<double> SelfSeconds() const;

  /// Index of the root span above `id`.
  int64_t RootOf(int64_t id) const;

  /// Chrome trace-event JSON ("X" complete events, microseconds) with
  /// parent and batch in each event's args; loads in Perfetto and
  /// chrome://tracing. `meta` is embedded verbatim as otherData and must
  /// itself be a JSON object.
  std::string ChromeTraceJson(const std::string& meta) const;

 private:
  double Now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
  bool paused_ = false;
};

/// RAII span: `ScopedSpan s(rec, "nn.forward", batch);`.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, int64_t batch = -1)
      : recorder_(recorder), id_(recorder.Begin(name, batch)) {}
  ~ScopedSpan() { recorder_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int64_t id_;
};

/// Per-root-kind totals: for every root span named `root`, the self time
/// of each descendant summed by span name, plus the roots' own wall and
/// self time. Used to turn a trace into per-layer metrics.
struct RootTotals {
  int64_t roots = 0;
  double wall = 0.0;       ///< summed root durations
  double root_self = 0.0;  ///< summed root self time (no child span)
  std::map<std::string, double> self_by_name;

  double Self(const std::string& name) const {
    auto it = self_by_name.find(name);
    return it == self_by_name.end() ? 0.0 : it->second;
  }
};
RootTotals SumUnderRoots(const SpanRecorder& recorder, const char* root);

}  // namespace trainbench

#endif  // TRAINBENCH_SPANS_H_
