#include "spans.h"

#include <cstdio>

namespace trainbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int64_t SpanRecorder::Begin(const char* name, int64_t batch) {
  if (paused_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.batch = batch;
  span.start = Now();
  const auto id = static_cast<int64_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int64_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = Now();
  // Spans are scoped, so the one ending is the innermost open span.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> SpanRecorder::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.end - span.start;
    }
  }
  return self;
}

int64_t SpanRecorder::RootOf(int64_t id) const {
  while (spans_[static_cast<size_t>(id)].parent >= 0) {
    id = spans_[static_cast<size_t>(id)].parent;
  }
  return id;
}

std::string SpanRecorder::ChromeTraceJson(const std::string& meta) const {
  std::string out = "{\"traceEvents\": [";
  char buf[320];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"cat\": \"trainbench\", "
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %lld, "
                  "\"batch\": %lld}}",
                  i == 0 ? "" : ",", s.name, s.start * 1e6,
                  (s.end - s.start) * 1e6, i,
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.batch));
    out += buf;
  }
  out += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": " + meta + "}\n";
  return out;
}

RootTotals SumUnderRoots(const SpanRecorder& recorder, const char* root) {
  const std::string root_name = root;
  const std::vector<double> self = recorder.SelfSeconds();
  const auto& spans = recorder.spans();
  RootTotals totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto r = static_cast<size_t>(recorder.RootOf(static_cast<int64_t>(i)));
    if (spans[r].name != root_name) continue;
    if (r == i) {
      ++totals.roots;
      totals.wall += spans[i].end - spans[i].start;
      totals.root_self += self[i];
    } else {
      totals.self_by_name[spans[i].name] += self[i];
    }
  }
  return totals;
}

}  // namespace trainbench
