// micro_kernels — serial-vs-parallel kernel-regression harness.
//
// Measures the hot compute kernels (dense matmul family, sparse mean
// aggregation forward + backward, feature gather) serially and across a
// thread-count sweep, verifies every parallel output is byte-identical
// to the serial baseline, and emits BENCH_kernels.json so CI can track
// the perf trajectory.
//
//   micro_kernels [--quick] [--threads=2,4,8] [--reps=N]
//                 [--simd=auto|scalar|avx2|avx512|neon]
//                 [--json=BENCH_kernels.json] [--no_json]
//
// The exit code is nonzero only when a parallel output differs from the
// serial baseline — a determinism-contract violation. Speedups are
// reported, not asserted: they depend on the machine's core count (a
// 1-core container shows ~1x by construction), while byte-identity must
// hold everywhere.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "nn/aggregate.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "transfer/transfer_engine.h"

namespace gnndm {
namespace {

void FillRandom(Tensor& t, Rng& rng) {
  float* p = t.data();
  for (size_t i = 0; i < t.size(); ++i) {
    p[i] = static_cast<float>(rng.UniformReal() * 2.0 - 1.0);
  }
}

/// One measurable kernel: `run` executes it on prebuilt inputs; `reset`
/// reinitializes the output (needed by the accumulate-in-place backward
/// kernels); `bytes` snapshots the output buffer for byte comparison.
struct BenchCase {
  std::string name;
  std::string shape;
  std::function<void()> reset;
  std::function<void()> run;
  std::function<std::vector<char>()> bytes;
};

std::vector<char> TensorBytes(const Tensor& t) {
  const char* p = reinterpret_cast<const char*>(t.data());
  return std::vector<char>(p, p + t.size() * sizeof(float));
}

/// Best-of-`reps` wall time for `run`, after one warmup execution.
double MeasureMs(const BenchCase& k, int reps) {
  k.reset();
  k.run();  // warmup: pool spin-up, page faults, cache state
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    k.reset();
    WallTimer timer;
    k.run();
    best = std::min(best, timer.Millis());
  }
  return best;
}

/// Deterministic synthetic SampleLayer: `num_dst` destinations over
/// `num_src` sources with degrees in [1, 2*avg_degree).
SampleLayer MakeLayer(uint32_t num_dst, uint32_t num_src,
                      uint32_t avg_degree, Rng& rng) {
  SampleLayer layer;
  layer.num_dst = num_dst;
  layer.num_src = num_src;
  layer.offsets.push_back(0);
  for (uint32_t i = 0; i < num_dst; ++i) {
    const uint32_t degree =
        1 + static_cast<uint32_t>(rng.UniformInt(2 * avg_degree - 1));
    for (uint32_t e = 0; e < degree; ++e) {
      layer.neighbors.push_back(
          static_cast<uint32_t>(rng.UniformInt(num_src)));
    }
    layer.offsets.push_back(static_cast<uint32_t>(layer.neighbors.size()));
  }
  return layer;
}

/// Power-law-shaped SampleLayer: a hub destination every 97 rows with
/// fanout up to `max_degree`, the rest tapering toward degree 1 — the
/// skew real neighbor sampling produces on scale-free graphs, which the
/// uniform MakeLayer hides (hubs stress the gather ramp; the tail
/// stresses per-row dispatch overhead).
SampleLayer MakePowerLawLayer(uint32_t num_dst, uint32_t num_src,
                              uint32_t max_degree, Rng& rng) {
  SampleLayer layer;
  layer.num_dst = num_dst;
  layer.num_src = num_src;
  layer.offsets.push_back(0);
  for (uint32_t i = 0; i < num_dst; ++i) {
    const uint32_t degree = std::max<uint32_t>(1, max_degree / (1 + i % 97));
    for (uint32_t e = 0; e < degree; ++e) {
      layer.neighbors.push_back(
          static_cast<uint32_t>(rng.UniformInt(num_src)));
    }
    layer.offsets.push_back(static_cast<uint32_t>(layer.neighbors.size()));
  }
  return layer;
}

struct ThreadSample {
  size_t threads = 0;
  double ms = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

struct KernelReport {
  std::string name;
  std::string shape;
  double serial_ms = 0.0;
  std::vector<ThreadSample> samples;
};

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool quick = flags.GetBool("quick", false);
  const int reps =
      static_cast<int>(flags.GetInt("reps", quick ? 3 : 5));
  std::vector<size_t> thread_list;
  for (uint32_t t : flags.GetPositiveList("threads", "2,4,8")) {
    if (t > 1) thread_list.push_back(t);
  }
  const std::string json_path =
      flags.GetString("json", "BENCH_kernels.json");
  const std::string simd_choice = flags.GetString("simd", "auto");
  if (Status simd_status = SetSimdTierByName(simd_choice);
      !simd_status.ok()) {
    std::fprintf(stderr, "--simd: %s\n", simd_status.ToString().c_str());
    return 2;
  }
  const char* simd_name = SimdTierName(ActiveSimdTier());
  std::printf("[simd tier: %s]\n", simd_name);

  // --- Deterministic inputs -------------------------------------------
  Rng rng(20240605);
  const size_t mm = quick ? 128 : 384;            // matmul m = k = n
  const uint32_t agg_dst = quick ? 2048 : 16384;  // aggregation dsts
  const uint32_t agg_deg = 16;
  const uint32_t feat_dim = 64;
  const uint32_t gather_rows = quick ? 8192 : 65536;

  Tensor a(mm, mm), b(mm, mm), mm_out;
  FillRandom(a, rng);
  FillRandom(b, rng);

  const uint32_t agg_src = agg_dst * 2;
  SampleLayer layer = MakeLayer(agg_dst, agg_src, agg_deg, rng);
  Tensor agg_in(agg_src, feat_dim), agg_out;
  FillRandom(agg_in, rng);
  Tensor bwd_in(agg_dst, feat_dim), bwd_out;
  FillRandom(bwd_in, rng);

  FeatureMatrix features(gather_rows * 2, feat_dim);
  for (VertexId v = 0; v < gather_rows * 2; ++v) {
    for (float& f : features.mutable_row(v)) {
      f = static_cast<float>(rng.UniformReal());
    }
  }
  std::vector<VertexId> gather_ids(gather_rows);
  for (auto& v : gather_ids) {
    v = static_cast<VertexId>(rng.UniformInt(gather_rows * 2));
  }
  Tensor gather_out;

  char shape[64];
  std::vector<BenchCase> cases;
  auto no_reset = [] {};

  std::snprintf(shape, sizeof(shape), "%zux%zux%zu", mm, mm, mm);
  cases.push_back({"matmul", shape, no_reset,
                   [&] { MatMul(a, b, mm_out); },
                   [&] { return TensorBytes(mm_out); }});
  cases.push_back({"matmul_ta", shape, no_reset,
                   [&] { MatMulTransA(a, b, mm_out); },
                   [&] { return TensorBytes(mm_out); }});
  cases.push_back({"matmul_tb", shape, no_reset,
                   [&] { MatMulTransB(a, b, mm_out); },
                   [&] { return TensorBytes(mm_out); }});

  // GNN-shaped tall-skinny matmuls: thousands of batch rows against the
  // small square-ish weights a GraphSAGE/GCN layer actually multiplies
  // (hidden 64→16 and input 256→256). The square case above measures
  // peak flops; these measure the shapes training spends its time in.
  const size_t tall_m = quick ? 2048 : 8192;
  Tensor tall_in64(tall_m, 64), tall_w64(64, 16);
  Tensor tall_in256(tall_m, 256), tall_w256(256, 256);
  FillRandom(tall_in64, rng);
  FillRandom(tall_w64, rng);
  FillRandom(tall_in256, rng);
  FillRandom(tall_w256, rng);
  std::snprintf(shape, sizeof(shape), "%zux64x16", tall_m);
  cases.push_back({"matmul_tall_64_16", shape, no_reset,
                   [&] { MatMul(tall_in64, tall_w64, mm_out); },
                   [&] { return TensorBytes(mm_out); }});
  std::snprintf(shape, sizeof(shape), "%zux256x256", tall_m);
  cases.push_back({"matmul_tall_256_256", shape, no_reset,
                   [&] { MatMul(tall_in256, tall_w256, mm_out); },
                   [&] { return TensorBytes(mm_out); }});

  // Conv 0's weight gradient dW = X^T * dY: the reduction runs over the
  // batch rows, so k is the tall dimension (k-chunked MatMulTransA).
  Tensor tall_x128(tall_m, 128), tall_dy128(tall_m, 128);
  FillRandom(tall_x128, rng);
  FillRandom(tall_dy128, rng);
  std::snprintf(shape, sizeof(shape), "(%zux128)^Tx(%zux128)", tall_m,
                tall_m);
  cases.push_back({"matmul_ta_tall", shape, no_reset,
                   [&] { MatMulTransA(tall_x128, tall_dy128, mm_out); },
                   [&] { return TensorBytes(mm_out); }});

  std::snprintf(shape, sizeof(shape), "%ud deg~%u dim=%u", agg_dst,
                agg_deg, feat_dim);
  cases.push_back({"agg_self", shape, no_reset,
                   [&] { MeanAggregateWithSelf(layer, agg_in, agg_out); },
                   [&] { return TensorBytes(agg_out); }});
  cases.push_back(
      {"agg_nbrs", shape, no_reset,
       [&] { MeanAggregateNeighbors(layer, agg_in, agg_out); },
       [&] { return TensorBytes(agg_out); }});
  // The backward kernels accumulate into d_src; reset to a zeroed tensor
  // so every measured run — and the compared snapshot — starts identical.
  cases.push_back(
      {"agg_self_bwd", shape,
       [&] { bwd_out = Tensor(agg_src, feat_dim); },
       [&] { MeanAggregateWithSelfBackward(layer, bwd_in, bwd_out); },
       [&] { return TensorBytes(bwd_out); }});
  cases.push_back(
      {"agg_nbrs_bwd", shape,
       [&] { bwd_out = Tensor(agg_src, feat_dim); },
       [&] { MeanAggregateNeighborsBackward(layer, bwd_in, bwd_out); },
       [&] { return TensorBytes(bwd_out); }});

  // Power-law fanout: hubs + long tail, the degree profile sampling
  // actually emits (the uniform layer above flatters per-row overhead).
  SampleLayer pow_layer =
      MakePowerLawLayer(agg_dst, agg_src, /*max_degree=*/128, rng);
  std::snprintf(shape, sizeof(shape), "%ud pow~128 dim=%u", agg_dst,
                feat_dim);
  cases.push_back(
      {"agg_self_pow", shape, no_reset,
       [&] { MeanAggregateWithSelf(pow_layer, agg_in, agg_out); },
       [&] { return TensorBytes(agg_out); }});
  cases.push_back(
      {"agg_self_pow_bwd", shape,
       [&] { bwd_out = Tensor(agg_src, feat_dim); },
       [&] { MeanAggregateWithSelfBackward(pow_layer, bwd_in, bwd_out); },
       [&] { return TensorBytes(bwd_out); }});

  std::snprintf(shape, sizeof(shape), "%ur dim=%u", gather_rows, feat_dim);
  cases.push_back(
      {"gather", shape, no_reset,
       [&] { TransferEngine::Gather(gather_ids, features, gather_out); },
       [&] { return TensorBytes(gather_out); }});

  // Canonical-order dot product (the fixed-lane reduction primitive).
  // Serial by contract, so the thread sweep trivially matches — the
  // interesting number is the per-tier serial throughput.
  const size_t dot_n = quick ? (1u << 18) : (1u << 22);
  Tensor dot_x(1, dot_n), dot_y(1, dot_n), dot_out(1, 1);
  FillRandom(dot_x, rng);
  FillRandom(dot_y, rng);
  std::snprintf(shape, sizeof(shape), "n=%zu", dot_n);
  cases.push_back({"dot_canonical", shape, no_reset,
                   [&] {
                     dot_out.data()[0] =
                         DotCanonical(dot_x.data(), dot_y.data(), dot_n);
                   },
                   [&] { return TensorBytes(dot_out); }});

  // --- Measure ---------------------------------------------------------
  std::vector<KernelReport> reports;
  bool all_identical = true;
  for (const BenchCase& k : cases) {
    KernelReport report;
    report.name = k.name;
    report.shape = k.shape;

    SetComputeThreads(1);
    report.serial_ms = MeasureMs(k, reps);
    k.reset();
    k.run();
    const std::vector<char> golden = k.bytes();

    for (size_t t : thread_list) {
      SetComputeThreads(t);
      ThreadSample sample;
      sample.threads = t;
      sample.ms = MeasureMs(k, reps);
      sample.speedup =
          sample.ms > 0.0 ? report.serial_ms / sample.ms : 0.0;
      k.reset();
      k.run();
      const std::vector<char> parallel = k.bytes();
      sample.identical = parallel.size() == golden.size() &&
                         std::memcmp(parallel.data(), golden.data(),
                                     golden.size()) == 0;
      if (!sample.identical) all_identical = false;
      report.samples.push_back(sample);
    }
    reports.push_back(std::move(report));
  }
  SetComputeThreads(1);

  // --- Report ----------------------------------------------------------
  Table table("Kernel regression: serial vs parallel (best-of-" +
              std::to_string(reps) + ")");
  std::vector<std::string> header = {"kernel", "shape", "serial ms"};
  for (size_t t : thread_list) {
    header.push_back("t=" + std::to_string(t) + " ms");
    header.push_back("x");
    header.back() += std::to_string(t);
    header.push_back("same");
  }
  table.SetHeader(std::move(header));
  for (const KernelReport& r : reports) {
    std::vector<std::string> row = {r.name, r.shape,
                                    Table::Num(r.serial_ms, 3)};
    for (const ThreadSample& s : r.samples) {
      row.push_back(Table::Num(s.ms, 3));
      row.push_back(Table::Num(s.speedup, 2));
      row.push_back(s.identical ? "yes" : "NO");
    }
    table.AddRow(std::move(row));
  }
  std::printf("%s\n", table.ToAscii().c_str());

  if (!flags.GetBool("no_json", false)) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::fprintf(f, "{\n  \"run_meta\": %s,\n",
                 bench::RunMetaJson(flags).c_str());
    std::fprintf(f, "  \"quick\": %s,\n  \"reps\": %d,\n",
                 quick ? "true" : "false", reps);
    std::fprintf(f, "  \"simd\": \"%s\",\n", simd_name);
    std::fprintf(f, "  \"all_identical\": %s,\n",
                 all_identical ? "true" : "false");
    std::fprintf(f, "  \"kernels\": [\n");
    for (size_t i = 0; i < reports.size(); ++i) {
      const KernelReport& r = reports[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"shape\": \"%s\", "
                   "\"serial_ms\": %.4f, \"parallel\": [",
                   r.name.c_str(), r.shape.c_str(), r.serial_ms);
      for (size_t j = 0; j < r.samples.size(); ++j) {
        const ThreadSample& s = r.samples[j];
        std::fprintf(f,
                     "%s{\"threads\": %zu, \"ms\": %.4f, "
                     "\"speedup\": %.3f, \"identical\": %s}",
                     j ? ", " : "", s.threads, s.ms, s.speedup,
                     s.identical ? "true" : "false");
      }
      std::fprintf(f, "]}%s\n", i + 1 < reports.size() ? "," : "");
    }
    // Metrics snapshot rides along (parallel.loops, pool.tasks, shard
    // imbalance quantiles) so regressions can be traced to scheduling.
    std::fprintf(f, "  ],\n  \"metrics\": %s}\n",
                 telemetry::MetricsRegistry::Get().ToJson().c_str());
    std::fclose(f);
    std::printf("[json written to %s]\n", json_path.c_str());
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: parallel output differs from serial baseline\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace gnndm

int main(int argc, char** argv) { return gnndm::Run(argc, argv); }
