// Tests for the ParallelFor work-sharing layer and the byte-identity
// contract of the parallelized kernels: at any thread count, every
// parallel kernel must produce exactly the bytes the serial path does.
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "nn/aggregate.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "transfer/transfer_engine.h"

namespace gnndm {
namespace {

/// Restores the process-wide thread setting when a test exits, so test
/// order cannot leak a thread count into unrelated suites.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(ComputeThreads()) {}
  ~ThreadGuard() { SetComputeThreads(saved_); }

 private:
  size_t saved_;
};

TEST(ParallelForTest, EmptyRangeNeverInvokesBody) {
  ThreadGuard guard;
  for (size_t threads : {1, 8}) {
    SetComputeThreads(threads);
    bool called = false;
    ParallelFor(0, 16, [&](size_t, size_t) { called = true; });
    EXPECT_FALSE(called);
  }
}

TEST(ParallelForTest, RangeSmallerThanGrainRunsInlineAsOneChunk) {
  ThreadGuard guard;
  SetComputeThreads(8);
  int calls = 0;
  size_t begin = 99, end = 0;
  ParallelFor(10, 1024, [&](size_t b, size_t e) {
    ++calls;
    begin = b;
    end = e;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(begin, 0u);
  EXPECT_EQ(end, 10u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadGuard guard;
  const size_t n = 10007;  // prime, to exercise ragged chunking
  for (size_t threads : {1, 2, 8}) {
    SetComputeThreads(threads);
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    ParallelFor(n, 64, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads
                                   << " threads";
    }
    // A grain of ceil(n / threads) caps the chunks at the thread count,
    // which bounds the re-scans of the backward aggregation scatter.
    std::atomic<size_t> chunks{0};
    ParallelFor(n, (n + threads - 1) / threads,
                [&](size_t, size_t) { chunks.fetch_add(1); });
    EXPECT_LE(chunks.load(), threads);
  }
}

TEST(ParallelForTest, TwoDCoversEveryCellExactlyOnce) {
  ThreadGuard guard;
  const size_t rows = 67, cols = 129;
  for (size_t threads : {1, 2, 8}) {
    SetComputeThreads(threads);
    std::vector<std::atomic<int>> hits(rows * cols);
    for (auto& h : hits) h.store(0);
    ParallelFor2D(rows, cols, 16, 32,
                  [&](size_t i0, size_t i1, size_t j0, size_t j1) {
                    for (size_t i = i0; i < i1; ++i) {
                      for (size_t j = j0; j < j1; ++j) {
                        hits[i * cols + j].fetch_add(1);
                      }
                    }
                  });
    for (size_t i = 0; i < rows * cols; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "cell " << i << " at " << threads
                                   << " threads";
    }
  }
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  ThreadGuard guard;
  for (size_t threads : {1, 8}) {
    SetComputeThreads(threads);
    EXPECT_THROW(
        ParallelFor(100000, 64,
                    [&](size_t b, size_t) {
                      if (b >= 4096) throw std::runtime_error("boom");
                    }),
        std::runtime_error);
  }
}

TEST(ParallelForTest, NestedCallsRunSerialWithoutDeadlock) {
  ThreadGuard guard;
  SetComputeThreads(8);
  std::atomic<size_t> total{0};
  ParallelFor(64, 4, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      EXPECT_TRUE(InParallelRegion());
      ParallelFor(32, 4, [&](size_t ib, size_t ie) {
        total.fetch_add(ie - ib);
      });
    }
  });
  EXPECT_EQ(total.load(), 64u * 32u);
}

TEST(ParallelForTest, ConcurrentCallersFromRawThreads) {
  ThreadGuard guard;
  SetComputeThreads(4);
  // Several external threads drive independent ParallelFor loops over the
  // shared pool at once; under TSan this doubles as a race stress test.
  std::vector<std::thread> callers;
  std::vector<std::vector<int>> results(4);
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&, c] {
      std::vector<int>& mine = results[c];
      mine.assign(5000, 0);
      for (int rep = 0; rep < 10; ++rep) {
        ParallelFor(mine.size(), 128, [&](size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) mine[i] += 1;
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& r : results) {
    for (int v : r) ASSERT_EQ(v, 10);
  }
}

TEST(ParallelForTest, SetComputeThreadsSwapsPoolSafely) {
  ThreadGuard guard;
  for (size_t threads : {2, 8, 1, 3}) {
    SetComputeThreads(threads);
    EXPECT_EQ(ComputeThreads(), threads);
    std::atomic<size_t> sum{0};
    ParallelFor(1000, 10,
                [&](size_t b, size_t e) { sum.fetch_add(e - b); });
    EXPECT_EQ(sum.load(), 1000u);
  }
}

// --- Byte-identity: kernels must not depend on the thread count --------

std::vector<char> Bytes(const Tensor& t) {
  const char* p = reinterpret_cast<const char*>(t.data());
  return std::vector<char>(p, p + t.size() * sizeof(float));
}

void FillRandom(Tensor& t, Rng& rng) {
  for (size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng.UniformReal() * 2.0 - 1.0);
  }
}

SampleLayer MakeLayer(uint32_t num_dst, uint32_t num_src, Rng& rng) {
  SampleLayer layer;
  layer.num_dst = num_dst;
  layer.num_src = num_src;
  layer.offsets.push_back(0);
  for (uint32_t i = 0; i < num_dst; ++i) {
    const uint32_t degree = static_cast<uint32_t>(rng.UniformInt(9));
    for (uint32_t e = 0; e < degree; ++e) {
      layer.neighbors.push_back(
          static_cast<uint32_t>(rng.UniformInt(num_src)));
    }
    layer.offsets.push_back(static_cast<uint32_t>(layer.neighbors.size()));
  }
  return layer;
}

/// Runs `kernel` serially, then at 2 and 8 threads, and expects the exact
/// same bytes from `result` every time.
template <typename Kernel, typename Snapshot>
void ExpectByteIdentical(Kernel kernel, Snapshot result) {
  ThreadGuard guard;
  SetComputeThreads(1);
  kernel();
  const std::vector<char> golden = result();
  for (size_t threads : {2, 8}) {
    SetComputeThreads(threads);
    kernel();
    const std::vector<char> parallel = result();
    ASSERT_EQ(parallel.size(), golden.size());
    EXPECT_EQ(std::memcmp(parallel.data(), golden.data(), golden.size()),
              0)
        << "kernel output changed at " << threads << " threads";
  }
}

TEST(KernelByteIdentityTest, MatMulFamily) {
  Rng rng(42);
  // MatMul: [97x131]x[131x73]; TransA: aT[131x97]x[97x73] needs b with 97
  // rows; TransB: [97x131]xbT needs b with 131 cols.
  Tensor a(97, 131), b(131, 73), ta(97, 73), tb(50, 131), out;
  FillRandom(a, rng);
  FillRandom(b, rng);
  FillRandom(ta, rng);
  FillRandom(tb, rng);
  ExpectByteIdentical([&] { MatMul(a, b, out); }, [&] { return Bytes(out); });
  ExpectByteIdentical([&] { MatMulTransA(a, ta, out); },
                      [&] { return Bytes(out); });
  ExpectByteIdentical([&] { MatMulTransB(a, tb, out); },
                      [&] { return Bytes(out); });
}

TEST(KernelByteIdentityTest, AggregateForward) {
  Rng rng(43);
  SampleLayer layer = MakeLayer(700, 1400, rng);
  Tensor src(1400, 33), out;
  FillRandom(src, rng);
  ExpectByteIdentical([&] { MeanAggregateWithSelf(layer, src, out); },
                      [&] { return Bytes(out); });
  ExpectByteIdentical([&] { MeanAggregateNeighbors(layer, src, out); },
                      [&] { return Bytes(out); });
}

TEST(KernelByteIdentityTest, AggregateBackward) {
  Rng rng(44);
  SampleLayer layer = MakeLayer(700, 1400, rng);
  Tensor d_dst(700, 33), d_src;
  FillRandom(d_dst, rng);
  // The backwards accumulate, so the snapshot closure zeroes first.
  ExpectByteIdentical(
      [&] {
        d_src = Tensor(1400, 33);
        MeanAggregateWithSelfBackward(layer, d_dst, d_src);
      },
      [&] { return Bytes(d_src); });
  ExpectByteIdentical(
      [&] {
        d_src = Tensor(1400, 33);
        MeanAggregateNeighborsBackward(layer, d_dst, d_src);
      },
      [&] { return Bytes(d_src); });
}

TEST(KernelByteIdentityTest, ElementwiseAndBiasOps) {
  Rng rng(45);
  Tensor base(257, 19), bias(1, 19);
  FillRandom(base, rng);
  FillRandom(bias, rng);
  Tensor x, grad;
  ExpectByteIdentical(
      [&] {
        x = base;
        AddBiasInPlace(x, bias);
        ReluInPlace(x);
      },
      [&] { return Bytes(x); });
  ExpectByteIdentical([&] { SumRows(base, grad); },
                      [&] { return Bytes(grad); });
  ExpectByteIdentical(
      [&] {
        x = base;
        ScaleInPlace(x, 0.37f);
        Axpy(1.25f, base, x);
      },
      [&] { return Bytes(x); });
}

TEST(KernelByteIdentityTest, FeatureGather) {
  Rng rng(46);
  FeatureMatrix features(5000, 41);
  for (VertexId v = 0; v < 5000; ++v) {
    for (float& f : features.mutable_row(v)) {
      f = static_cast<float>(rng.UniformReal());
    }
  }
  std::vector<VertexId> ids(3000);
  for (auto& v : ids) v = static_cast<VertexId>(rng.UniformInt(5000));
  Tensor out;
  ExpectByteIdentical(
      [&] { TransferEngine::Gather(ids, features, out); },
      [&] { return Bytes(out); });
}

}  // namespace
}  // namespace gnndm
