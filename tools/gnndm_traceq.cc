// gnndm_traceq — offline analyzer for the Chrome traces gnndm_train
// writes (--trace-out). Answers "where did the time go" without rerunning
// anything:
//
//   $ gnndm_traceq --trace=smoke_trace.json
//   $ gnndm_traceq --trace=smoke_trace.json --json=report.json --check
//
// Reports per-lane utilization (both clock domains), the critical path
// through the virtual span graph, the reorder-ring occupancy timeline,
// the top-k slowest spans, the Fig-2-style stage breakdown, and a
// bottleneck verdict. --check additionally enforces the critical-path
// invariants (path <= extent, path >= busiest lane) and exits nonzero if
// they fail. Exit codes: 0 ok, 1 unreadable/malformed trace, 2 empty
// trace, 3 --check invariant violation.
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/status.h"
#include "common/table.h"
#include "common/telemetry.h"
#include "core/attribution.h"

namespace gnndm {
namespace {

// --- Trace model --------------------------------------------------------

/// Tolerance for float round-trips through the trace (microsecond
/// timestamps printed as JSON numbers).
constexpr double kEps = 1e-6;

struct Span {
  std::string name;
  bool wall = false;  ///< pid 1 = wall clock, pid 2 = virtual clock
  int64_t tid = 0;
  double ts = 0.0;   ///< seconds
  double dur = 0.0;  ///< seconds
  int64_t batch = -1;
};

struct CounterSample {
  std::string name;
  double ts = 0.0;
  double value = 0.0;
};

struct TraceData {
  std::vector<Span> spans;
  std::vector<CounterSample> counters;
  /// Lane names from "M" thread_name metadata, keyed by (pid, tid).
  std::map<std::pair<int64_t, int64_t>, std::string> lane_names;
  size_t events = 0;
};

bool LoadTrace(const std::string& path, TraceData* out,
               std::string* error) {
  std::ifstream in(path);
  if (!in.is_open()) {
    *error = "cannot open " + path;
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  json::Value root;
  if (Status status = json::Parse(text, &root); !status.ok()) {
    *error = "malformed JSON in " + path + ": " + status.message();
    return false;
  }
  if (root.kind != json::Value::Kind::kObject) {
    *error = "malformed JSON in " + path + ": not an object";
    return false;
  }
  const json::Value* events = root.Find("traceEvents");
  if (events == nullptr || events->kind != json::Value::Kind::kArray) {
    *error = "no traceEvents array in " + path;
    return false;
  }
  for (const json::Value& e : events->items) {
    if (e.kind != json::Value::Kind::kObject) {
      *error = "non-object trace event";
      return false;
    }
    ++out->events;
    const std::string ph = e.StringOr("ph", "");
    const auto pid = static_cast<int64_t>(e.NumberOr("pid", 0));
    const auto tid = static_cast<int64_t>(e.NumberOr("tid", 0));
    const json::Value* args = e.Find("args");
    if (ph == "M") {
      if (args != nullptr &&
          (e.StringOr("name", "") == "thread_name" ||
           e.StringOr("name", "") == "process_name")) {
        const int64_t key_tid =
            e.StringOr("name", "") == "process_name" ? -1 : tid;
        out->lane_names[{pid, key_tid}] = args->StringOr("name", "");
      }
      continue;
    }
    if (ph == "X") {
      Span span;
      span.name = e.StringOr("name", "");
      span.wall = pid == 1;
      span.tid = tid;
      span.ts = e.NumberOr("ts", 0.0) / 1e6;
      span.dur = e.NumberOr("dur", 0.0) / 1e6;
      if (args != nullptr) {
        span.batch = static_cast<int64_t>(args->NumberOr("batch", -1.0));
      }
      out->spans.push_back(std::move(span));
      continue;
    }
    if (ph == "C") {
      CounterSample sample;
      sample.name = e.StringOr("name", "");
      sample.ts = e.NumberOr("ts", 0.0) / 1e6;
      if (args != nullptr) sample.value = args->NumberOr("value", 0.0);
      out->counters.push_back(std::move(sample));
      continue;
    }
    // Other phases (B/E, instant, ...) are not produced by our tracer;
    // ignore rather than fail so hand-edited traces still load.
  }
  return true;
}

// --- Analyses -----------------------------------------------------------

struct LaneStats {
  int64_t tid = 0;
  std::string name;
  double busy = 0.0;
  size_t spans = 0;
};

struct DomainStats {
  double begin = 0.0;
  double end = 0.0;
  std::vector<LaneStats> lanes;
  double extent() const { return std::max(0.0, end - begin); }
};

DomainStats LaneUtilization(const TraceData& trace, bool wall) {
  DomainStats out;
  std::map<int64_t, LaneStats> lanes;
  bool first = true;
  for (const Span& s : trace.spans) {
    if (s.wall != wall) continue;
    LaneStats& lane = lanes[s.tid];
    lane.tid = s.tid;
    lane.busy += s.dur;
    ++lane.spans;
    if (first || s.ts < out.begin) out.begin = s.ts;
    if (first || s.ts + s.dur > out.end) out.end = s.ts + s.dur;
    first = false;
  }
  const int64_t pid = wall ? 1 : 2;
  for (auto& [tid, lane] : lanes) {
    auto it = trace.lane_names.find({pid, tid});
    lane.name = it != trace.lane_names.end()
                    ? it->second
                    : (wall ? "thread " : "lane ") + std::to_string(tid);
    out.lanes.push_back(lane);
  }
  return out;
}

/// Longest path through the virtual span DAG. Edges: consecutive spans on
/// the same lane (a serial resource) and same-batch cross-lane pairs —
/// both only when the successor starts at or after the predecessor's end
/// (within kEps), so every path is a chain of non-overlapping spans and
/// its length is bounded by the domain extent. Each lane's full busy time
/// is itself a path, giving the lower bound the --check invariant uses.
struct CriticalPath {
  double seconds = 0.0;
  size_t spans = 0;
};

CriticalPath VirtualCriticalPath(const TraceData& trace) {
  struct Node {
    const Span* span;
    double dp = 0.0;
    size_t hops = 1;
  };
  std::vector<Node> nodes;
  for (const Span& s : trace.spans) {
    if (!s.wall) nodes.push_back({&s, s.dur, 1});
  }
  std::sort(nodes.begin(), nodes.end(), [](const Node& a, const Node& b) {
    if (a.span->ts != b.span->ts) return a.span->ts < b.span->ts;
    return a.span->tid < b.span->tid;
  });
  // Index nodes by lane and by batch for the two edge families.
  std::map<int64_t, std::vector<size_t>> by_lane;
  std::map<int64_t, std::vector<size_t>> by_batch;
  for (size_t i = 0; i < nodes.size(); ++i) {
    by_lane[nodes[i].span->tid].push_back(i);
    if (nodes[i].span->batch >= 0) {
      by_batch[nodes[i].span->batch].push_back(i);
    }
  }
  auto relax = [&nodes](size_t from, size_t to) {
    const Span& a = *nodes[from].span;
    const Span& b = *nodes[to].span;
    if (b.ts + kEps < a.ts + a.dur) return;  // overlapping: no edge
    if (nodes[from].dp + b.dur > nodes[to].dp) {
      nodes[to].dp = nodes[from].dp + b.dur;
      nodes[to].hops = nodes[from].hops + 1;
    }
  };
  // Nodes are in global ts order, so every relax sees a finalized
  // predecessor (edges always point forward in time).
  for (const auto& [lane, idx] : by_lane) {
    for (size_t i = 1; i < idx.size(); ++i) relax(idx[i - 1], idx[i]);
  }
  for (const auto& [batch, idx] : by_batch) {
    for (size_t j = 1; j < idx.size(); ++j) {
      for (size_t i = 0; i < j; ++i) relax(idx[i], idx[j]);
    }
  }
  CriticalPath out;
  for (const Node& n : nodes) {
    if (n.dp > out.seconds) {
      out.seconds = n.dp;
      out.spans = n.hops;
    }
  }
  return out;
}

/// Sum of virtual span durations whose name equals `name`.
double VirtualSum(const TraceData& trace, const char* name) {
  double sum = 0.0;
  for (const Span& s : trace.spans) {
    if (!s.wall && s.name == name) sum += s.dur;
  }
  return sum;
}

/// Sum of wall span durations whose name equals `name`.
double WallSum(const TraceData& trace, const char* name) {
  double sum = 0.0;
  for (const Span& s : trace.spans) {
    if (s.wall && s.name == name) sum += s.dur;
  }
  return sum;
}

struct OccupancyStats {
  size_t samples = 0;
  double max = 0.0;
  double mean = 0.0;
};

OccupancyStats ReorderOccupancy(const TraceData& trace) {
  OccupancyStats out;
  double sum = 0.0;
  for (const CounterSample& c : trace.counters) {
    if (c.name != "loader.reorder_occupancy") continue;
    ++out.samples;
    sum += c.value;
    out.max = std::max(out.max, c.value);
  }
  if (out.samples > 0) out.mean = sum / static_cast<double>(out.samples);
  return out;
}

/// The trace-side bottleneck verdict, mirroring AttributeEpoch's logic
/// with what the trace records: virtual stage sums for the argmax, wall
/// loader spans for the starvation and sample-vs-gather refinements.
Bottleneck TraceVerdict(const TraceData& trace, double wall_extent) {
  const double prep = VirtualSum(trace, "trainer.bp");
  const double transfer = VirtualSum(trace, "trainer.extract") +
                          VirtualSum(trace, "trainer.load");
  const double compute = VirtualSum(trace, "trainer.nn");
  const double consumer_wait = WallSum(trace, "loader.consumer_wait");
  const bool has_producers = WallSum(trace, "loader.produce") > 0.0;
  if (has_producers && wall_extent > 0.0 &&
      consumer_wait > 0.5 * wall_extent) {
    return Bottleneck::kLoaderStarved;
  }
  if (prep >= transfer && prep >= compute) {
    return WallSum(trace, "loader.gather") > WallSum(trace, "loader.sample")
               ? Bottleneck::kGatherBound
               : Bottleneck::kSampleBound;
  }
  if (transfer >= compute) return Bottleneck::kTransferBound;
  return Bottleneck::kComputeBound;
}

// --- Report -------------------------------------------------------------

std::string JsonNum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  // Keep JSON numeric (snprintf may emit inf/nan on degenerate input).
  for (const char* p = buf; *p != '\0'; ++p) {
    if (std::isalpha(static_cast<unsigned char>(*p)) && *p != 'e' &&
        *p != 'E') {
      return "0";
    }
  }
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string LanesJson(const DomainStats& d) {
  std::string out = "[";
  for (size_t i = 0; i < d.lanes.size(); ++i) {
    const LaneStats& lane = d.lanes[i];
    if (i > 0) out += ", ";
    out += "{\"tid\": " + std::to_string(lane.tid) + ", \"name\": \"" +
           JsonEscape(lane.name) + "\", \"busy_seconds\": " +
           JsonNum(lane.busy) + ", \"utilization\": " +
           JsonNum(d.extent() > 0.0 ? lane.busy / d.extent() : 0.0) +
           ", \"spans\": " + std::to_string(lane.spans) + "}";
  }
  return out + "]";
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.Has("help") || !flags.Has("trace")) {
    std::printf(
        "gnndm_traceq: offline analyzer for gnndm_train Chrome traces.\n"
        "  --trace=FILE.json  trace to analyze (required)\n"
        "  --json=FILE.json   also write the report as JSON\n"
        "  --top=N            slowest spans to list (default 10)\n"
        "  --check            enforce critical-path invariants (exit 3\n"
        "                     on violation)\n"
        "exit codes: 0 ok, 1 malformed trace, 2 empty trace, 3 check "
        "failed\n");
    return flags.Has("help") ? 0 : 1;
  }
  const std::string path = flags.GetString("trace", "");
  TraceData trace;
  std::string error;
  if (!LoadTrace(path, &trace, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  if (trace.spans.empty()) {
    std::fprintf(stderr, "error: %s contains no spans\n", path.c_str());
    return 2;
  }

  const DomainStats wall = LaneUtilization(trace, /*wall=*/true);
  const DomainStats virt = LaneUtilization(trace, /*wall=*/false);
  const CriticalPath critical = VirtualCriticalPath(trace);
  const OccupancyStats occupancy = ReorderOccupancy(trace);
  const Bottleneck verdict = TraceVerdict(trace, wall.extent());

  double max_lane_busy = 0.0;
  for (const LaneStats& lane : virt.lanes) {
    max_lane_busy = std::max(max_lane_busy, lane.busy);
  }
  const double tolerance = kEps * (1.0 + static_cast<double>(critical.spans));
  const bool path_le_extent =
      critical.seconds <= virt.extent() + tolerance;
  const bool path_ge_max_lane =
      critical.seconds >= max_lane_busy - tolerance;

  // --- Text report ---
  std::printf("trace %s: %zu events, %zu spans, %zu counter samples\n",
              path.c_str(), trace.events, trace.spans.size(),
              trace.counters.size());
  for (const bool is_wall : {true, false}) {
    const DomainStats& d = is_wall ? wall : virt;
    Table table(std::string(is_wall ? "wall" : "virtual") +
                " lane utilization (extent " +
                Table::Num(d.extent(), 6) + "s)");
    table.SetHeader({"lane", "name", "busy(s)", "util", "spans"});
    for (const LaneStats& lane : d.lanes) {
      table.AddRow({std::to_string(lane.tid), lane.name,
                    Table::Num(lane.busy, 6),
                    Table::Num(d.extent() > 0.0 ? lane.busy / d.extent()
                                                : 0.0,
                               3),
                    std::to_string(lane.spans)});
    }
    std::printf("%s", table.ToAscii().c_str());
  }
  std::printf(
      "critical path (virtual): %.6fs over %zu spans "
      "(extent %.6fs, busiest lane %.6fs)\n",
      critical.seconds, critical.spans, virt.extent(), max_lane_busy);

  {
    // Fig-2-style stage breakdown from the virtual spans.
    const double bp = VirtualSum(trace, "trainer.bp");
    const double extract = VirtualSum(trace, "trainer.extract");
    const double load = VirtualSum(trace, "trainer.load");
    const double nn = VirtualSum(trace, "trainer.nn");
    const double total = bp + extract + load + nn;
    Table table("stage breakdown (virtual seconds)");
    table.SetHeader({"stage", "seconds", "share"});
    const std::pair<const char*, double> stages[] = {
        {"batch preparation", bp},
        {"extract", extract},
        {"load", load},
        {"nn compute", nn}};
    for (const auto& [name, seconds] : stages) {
      table.AddRow({name, Table::Num(seconds, 6),
                    Table::Num(total > 0.0 ? seconds / total : 0.0, 3)});
    }
    std::printf("%s", table.ToAscii().c_str());
  }

  if (occupancy.samples > 0) {
    std::printf(
        "reorder-ring occupancy: %zu samples, mean %.2f, max %.0f\n",
        occupancy.samples, occupancy.mean, occupancy.max);
  }

  const auto top = static_cast<size_t>(flags.GetInt("top", 10));
  {
    std::vector<const Span*> slowest;
    slowest.reserve(trace.spans.size());
    for (const Span& s : trace.spans) slowest.push_back(&s);
    std::sort(slowest.begin(), slowest.end(),
              [](const Span* a, const Span* b) {
                if (a->dur != b->dur) return a->dur > b->dur;
                return a->ts < b->ts;
              });
    if (slowest.size() > top) slowest.resize(top);
    Table table("top " + std::to_string(slowest.size()) + " slowest spans");
    table.SetHeader({"name", "clock", "begin(s)", "dur(s)", "batch"});
    for (const Span* s : slowest) {
      table.AddRow({s->name, s->wall ? "wall" : "virtual",
                    Table::Num(s->ts, 6), Table::Num(s->dur, 6),
                    s->batch >= 0 ? std::to_string(s->batch) : "-"});
    }
    std::printf("%s", table.ToAscii().c_str());
  }
  std::printf("bottleneck verdict: %s\n", BottleneckName(verdict));
  if (!path_le_extent || !path_ge_max_lane) {
    std::printf("critical-path invariants: path<=extent %s, "
                "path>=busiest-lane %s\n",
                path_le_extent ? "ok" : "VIOLATED",
                path_ge_max_lane ? "ok" : "VIOLATED");
  }

  // --- JSON report ---
  if (flags.Has("json")) {
    std::string json = "{\"trace\": \"" + JsonEscape(path) + "\",\n";
    json += "\"events\": " + std::to_string(trace.events) +
            ", \"spans\": " + std::to_string(trace.spans.size()) +
            ", \"counter_samples\": " +
            std::to_string(trace.counters.size()) + ",\n";
    json += "\"wall\": {\"extent_seconds\": " + JsonNum(wall.extent()) +
            ", \"lanes\": " + LanesJson(wall) + "},\n";
    json += "\"virtual\": {\"extent_seconds\": " + JsonNum(virt.extent()) +
            ", \"lanes\": " + LanesJson(virt) +
            ", \"critical_path_seconds\": " + JsonNum(critical.seconds) +
            ", \"critical_path_spans\": " +
            std::to_string(critical.spans) + "},\n";
    json += "\"stage_breakdown\": {\"batch_prep\": " +
            JsonNum(VirtualSum(trace, "trainer.bp")) + ", \"extract\": " +
            JsonNum(VirtualSum(trace, "trainer.extract")) +
            ", \"load\": " + JsonNum(VirtualSum(trace, "trainer.load")) +
            ", \"nn\": " + JsonNum(VirtualSum(trace, "trainer.nn")) +
            "},\n";
    json += "\"reorder_occupancy\": {\"samples\": " +
            std::to_string(occupancy.samples) + ", \"mean\": " +
            JsonNum(occupancy.mean) + ", \"max\": " +
            JsonNum(occupancy.max) + "},\n";
    json += "\"verdict\": \"" + std::string(BottleneckName(verdict)) +
            "\",\n";
    json += "\"checks\": {\"critical_path_le_extent\": " +
            std::string(path_le_extent ? "true" : "false") +
            ", \"critical_path_ge_max_lane\": " +
            std::string(path_ge_max_lane ? "true" : "false") + "}}\n";
    if (Status lint = telemetry::JsonLint(json); !lint.ok()) {
      std::fprintf(stderr, "error: report JSON failed lint: %s\n",
                   lint.ToString().c_str());
      return 1;
    }
    const std::string out_path = flags.GetString("json", "");
    std::ofstream out(out_path, std::ios::trunc);
    out << json;
    if (!out.good()) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("report written to %s\n", out_path.c_str());
  }

  if (flags.GetBool("check", false) &&
      (!path_le_extent || !path_ge_max_lane)) {
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace gnndm

int main(int argc, char** argv) { return gnndm::Main(argc, argv); }
