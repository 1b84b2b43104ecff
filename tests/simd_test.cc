// Cross-tier bit-identity suite for the dispatched SIMD kernels
// (tensor/simd.h). The contract under test: every compiled dispatch
// tier this CPU runs, at every thread count, produces byte-identical
// results — the
// scalar tier at one thread is the reference, everything else is
// memcmp'd against it. Shapes deliberately include sizes that are not
// multiples of the 8-float virtual lane (tail paths), single rows/cols
// (degenerate register blocks), and zero-sized operands.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/status.h"
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

/// Restores the process-wide thread setting when a test exits.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(ComputeThreads()) {}
  ~ThreadGuard() { SetComputeThreads(saved_); }

 private:
  size_t saved_;
};

/// Restores the active SIMD tier when a test exits, so a failing
/// EXPECT mid-sweep cannot leak a pinned tier into other suites.
class TierGuard {
 public:
  TierGuard() : saved_(ActiveSimdTier()) {}
  ~TierGuard() { (void)SetSimdTier(saved_); }

 private:
  SimdTier saved_;
};

/// Deterministic non-trivial fill: varied signs and magnitudes so
/// accumulation-order differences cannot cancel out invisibly.
void FillTensor(Tensor& t, uint64_t seed) {
  Rng rng(seed);
  float* p = t.data();
  for (size_t i = 0; i < t.size(); ++i) {
    p[i] = static_cast<float>((rng.UniformReal() * 2.0 - 1.0) * 3.0);
  }
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Power-law-ish fanout layer: a few hub destinations with many
/// neighbors, a long tail with 0–2, exercising both the gather ramp and
/// the empty-row path.
SampleLayer SkewLayer(size_t num_dst, size_t num_src, uint64_t seed) {
  Rng rng(seed);
  SampleLayer layer;
  layer.num_dst = static_cast<uint32_t>(num_dst);
  layer.num_src = static_cast<uint32_t>(num_src);
  layer.offsets.push_back(0);
  for (size_t i = 0; i < num_dst; ++i) {
    size_t degree = (i % 17 == 0) ? 24 : rng.UniformInt(3);
    for (size_t e = 0; e < degree; ++e) {
      layer.neighbors.push_back(
          static_cast<uint32_t>(rng.UniformInt(num_src)));
    }
    layer.offsets.push_back(static_cast<uint32_t>(layer.neighbors.size()));
  }
  return layer;
}

/// Activates tier `t` and says whether it runs here. A tier compiled in
/// that this CPU cannot execute (an x86 build's avx512 on a CPU without
/// AVX-512) is skipped with a logged line; any other failure fails the
/// calling test.
bool ActivateTier(SimdTier t) {
  const Status status = SetSimdTier(t);
  if (status.code() == StatusCode::kFailedPrecondition) {
    std::printf("[   SKIP   ] SIMD tier %s: %s\n", SimdTierName(t),
                status.message().c_str());
    return false;
  }
  EXPECT_TRUE(status.ok()) << status.ToString();
  return status.ok();
}

/// Runs `op` under every runnable tier at 1/4/8 threads and memcmp's
/// each produced tensor against the scalar 1-thread reference.
void ExpectBitIdenticalAcrossTiers(
    const std::function<void(Tensor&)>& op, const std::string& what) {
  ThreadGuard threads;
  TierGuard tier;
  ASSERT_TRUE(SetSimdTier(SimdTier::kScalar).ok());
  SetComputeThreads(1);
  Tensor reference;
  op(reference);
  for (SimdTier t : CompiledSimdTiers()) {
    if (!ActivateTier(t)) continue;
    for (size_t threads_n : {1, 4, 8}) {
      SetComputeThreads(threads_n);
      Tensor got;
      op(got);
      EXPECT_TRUE(SameBytes(reference, got))
          << what << " differs on tier " << SimdTierName(t) << " at "
          << threads_n << " threads";
    }
  }
}

// Odd, lane-multiple, degenerate, and empty shapes for the GEMM family.
// The last four reach the widest register block (8 rows x 32 columns)
// and both of its edges: m % 8 in {0, 7}, n % 32 in {0, 31}, and the
// n = 16 of a classifier head.
struct MmShape {
  size_t m, k, n;
};
const MmShape kMmShapes[] = {
    {17, 13, 7},  {64, 256, 16}, {33, 1, 9},     {1, 40, 1},
    {8, 8, 8},    {129, 65, 31}, {0, 5, 4},      {5, 0, 4},
    {5, 4, 0},    {8, 16, 32},   {23, 40, 95},   {129, 65, 128},
    {64, 128, 16},
};

TEST(SimdTest, ScalarTierAlwaysCompiled) {
  const auto& tiers = CompiledSimdTiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers[0], SimdTier::kScalar);
}

TEST(SimdTest, TierByNameRejectsUnknown) {
  TierGuard tier;
  EXPECT_FALSE(SetSimdTierByName("sse9").ok());
  EXPECT_TRUE(SetSimdTierByName("scalar").ok());
  EXPECT_EQ(ActiveSimdTier(), SimdTier::kScalar);
  EXPECT_TRUE(SetSimdTierByName("auto").ok());
}

TEST(SimdTest, MatMulBitIdentical) {
  for (const MmShape& s : kMmShapes) {
    Tensor a(s.m, s.k), b(s.k, s.n);
    FillTensor(a, 11);
    FillTensor(b, 22);
    ExpectBitIdenticalAcrossTiers(
        [&](Tensor& out) { MatMul(a, b, out); },
        "MatMul " + std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
            std::to_string(s.n));
  }
}

TEST(SimdTest, MatMulTransABitIdentical) {
  for (const MmShape& s : kMmShapes) {
    Tensor a(s.k, s.m), b(s.k, s.n);
    FillTensor(a, 33);
    FillTensor(b, 44);
    ExpectBitIdenticalAcrossTiers(
        [&](Tensor& out) { MatMulTransA(a, b, out); }, "MatMulTransA");
  }
}

/// One ascending pass over all k rows per element, each multiply and
/// add rounded on its own: the bits MatMulTransA's k-chunked tiles must
/// reproduce.
Tensor NaiveMatMulTransA(const Tensor& a, const Tensor& b) {
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  Tensor out(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float s = 0.0f;
      for (size_t kk = 0; kk < k; ++kk) s += a.at(kk, i) * b.at(kk, j);
      out.at(i, j) = s;
    }
  }
  return out;
}

/// FillTensor plus signed zeros and subnormals, so a chunk boundary
/// that rounded or flushed a partial sum would show in the bytes.
void FillWithSpecials(Tensor& t, uint64_t seed) {
  FillTensor(t, seed);
  const float specials[] = {-0.0f, 0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -3.0e-39f, 1.0e-40f};
  for (size_t i = 0; i < t.size(); i += 5) {
    t.data()[i] = specials[(i / 5) % std::size(specials)];
  }
}

TEST(SimdTest, MatMulTransAMatchesNaiveAscendingLoop) {
  ThreadGuard threads;
  TierGuard tier;
  const size_t c = kMatMulTransAChunk;
  const size_t dims[] = {1, 7, 17, 65, 128};
  for (size_t k : {size_t{0}, size_t{1}, c - 1, c, c + 1, 3 * c + 5}) {
    for (size_t m : dims) {
      for (size_t n : dims) {
        Tensor a(k, m), b(k, n);
        FillWithSpecials(a, 7 * k + m);
        FillWithSpecials(b, 11 * k + n);
        const Tensor want = NaiveMatMulTransA(a, b);
        for (SimdTier t : CompiledSimdTiers()) {
          if (!ActivateTier(t)) continue;
          for (size_t threads_n : {1, 4}) {
            SetComputeThreads(threads_n);
            Tensor got;
            MatMulTransA(a, b, got);
            EXPECT_TRUE(SameBytes(want, got))
                << "k=" << k << " m=" << m << " n=" << n << " tier "
                << SimdTierName(t) << " at " << threads_n << " threads";
          }
        }
      }
    }
  }
}

TEST(SimdTest, MatMulTransBBitIdentical) {
  for (const MmShape& s : kMmShapes) {
    Tensor a(s.m, s.k), b(s.n, s.k);
    FillTensor(a, 55);
    FillTensor(b, 66);
    ExpectBitIdenticalAcrossTiers(
        [&](Tensor& out) { MatMulTransB(a, b, out); }, "MatMulTransB");
  }
}

TEST(SimdTest, ElementwiseOpsBitIdentical) {
  for (size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{1000003 % 4099}}) {
    Tensor x(1, n), bias(1, n);
    FillTensor(x, 77);
    FillTensor(bias, 88);
    ExpectBitIdenticalAcrossTiers(
        [&](Tensor& out) {
          out = x;
          AddBiasInPlace(out, bias);
          ReluInPlace(out);
          Axpy(0.37f, x, out);
          ScaleInPlace(out, -1.7f);
        },
        "elementwise chain n=" + std::to_string(n));
  }
}

TEST(SimdTest, ReluBackwardBitIdentical) {
  Tensor act(13, 29), grad(13, 29);
  FillTensor(act, 99);
  FillTensor(grad, 111);
  act.data()[0] = 0.0f;
  act.data()[1] = -0.0f;  // sign-of-zero must behave like the ternary
  ExpectBitIdenticalAcrossTiers(
      [&](Tensor& out) {
        out = grad;
        ReluBackwardInPlace(out, act);
      },
      "ReluBackwardInPlace");
}

TEST(SimdTest, ReluPreservesNegativeZero) {
  // relu is (0 > x) ? 0 : x — x = -0.0f compares equal, so its bit
  // pattern must survive on every tier (max-style implementations that
  // return +0 here would break bit identity with the scalar ternary).
  TierGuard tier;
  for (SimdTier t : CompiledSimdTiers()) {
    if (!ActivateTier(t)) continue;
    Tensor x(1, 9);
    x.Fill(-0.0f);
    ReluInPlace(x);
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_TRUE(std::signbit(x.data()[i]))
          << "tier " << SimdTierName(t) << " dropped -0.0 at " << i;
    }
  }
}

TEST(SimdTest, SumRowsBitIdentical) {
  Tensor grad(61, 37);
  FillTensor(grad, 123);
  ExpectBitIdenticalAcrossTiers(
      [&](Tensor& out) { SumRows(grad, out); }, "SumRows");
}

TEST(SimdTest, DotCanonicalBitIdenticalAllSizes) {
  ThreadGuard threads;
  TierGuard tier;
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                   size_t{64}, size_t{1021}}) {
    std::vector<float> x(n), y(n);
    Rng rng(n + 5);
    for (size_t i = 0; i < n; ++i) {
      x[i] = static_cast<float>(rng.UniformReal() * 2.0 - 1.0);
      y[i] = static_cast<float>(rng.UniformReal() * 2.0 - 1.0);
    }
    ASSERT_TRUE(SetSimdTier(SimdTier::kScalar).ok());
    const float reference = DotCanonical(x.data(), y.data(), n);
    for (SimdTier t : CompiledSimdTiers()) {
      if (!ActivateTier(t)) continue;
      const float got = DotCanonical(x.data(), y.data(), n);
      EXPECT_EQ(std::memcmp(&reference, &got, sizeof(float)), 0)
          << "dot n=" << n << " tier " << SimdTierName(t);
    }
  }
}

TEST(SimdTest, AggregationForwardBitIdentical) {
  for (size_t d : {size_t{1}, size_t{7}, size_t{16}, size_t{33}}) {
    SampleLayer layer = SkewLayer(97, 211, d);
    Tensor src(211, d);
    FillTensor(src, 300 + d);
    ExpectBitIdenticalAcrossTiers(
        [&](Tensor& out) { MeanAggregateWithSelf(layer, src, out); },
        "MeanAggregateWithSelf d=" + std::to_string(d));
    ExpectBitIdenticalAcrossTiers(
        [&](Tensor& out) { MeanAggregateNeighbors(layer, src, out); },
        "MeanAggregateNeighbors d=" + std::to_string(d));
  }
}

TEST(SimdTest, AggregationBackwardBitIdentical) {
  for (size_t d : {size_t{1}, size_t{7}, size_t{16}, size_t{33}}) {
    SampleLayer layer = SkewLayer(97, 211, 7 * d);
    Tensor d_out(97, d);
    FillTensor(d_out, 400 + d);
    ExpectBitIdenticalAcrossTiers(
        [&](Tensor& out) {
          out.Resize(layer.num_src, d);
          MeanAggregateWithSelfBackward(layer, d_out, out);
        },
        "MeanAggregateWithSelfBackward d=" + std::to_string(d));
    ExpectBitIdenticalAcrossTiers(
        [&](Tensor& out) {
          out.Resize(layer.num_src, d);
          MeanAggregateNeighborsBackward(layer, d_out, out);
        },
        "MeanAggregateNeighborsBackward d=" + std::to_string(d));
  }
}

TEST(SimdTest, GatherBitIdentical) {
  FeatureMatrix features(128, 21);
  Rng rng(7);
  for (VertexId v = 0; v < 128; ++v) {
    auto row = features.mutable_row(v);
    for (float& f : row) {
      f = static_cast<float>(rng.UniformReal() * 2.0 - 1.0);
    }
  }
  std::vector<VertexId> vertices;
  for (size_t i = 0; i < 501; ++i) {
    vertices.push_back(static_cast<VertexId>(rng.UniformInt(128)));
  }
  ExpectBitIdenticalAcrossTiers(
      [&](Tensor& out) { TransferEngine::Gather(vertices, features, out); },
      "TransferEngine::Gather");
}

TEST(SimdTest, EmptyOperandsAreSafeOnEveryTier) {
  TierGuard tier;
  for (SimdTier t : CompiledSimdTiers()) {
    if (!ActivateTier(t)) continue;
    Tensor empty(0, 8), out;
    MatMul(empty, Tensor(8, 0), out);
    EXPECT_EQ(out.rows(), 0u);
    EXPECT_EQ(out.cols(), 0u);
    ReluInPlace(out);
    ScaleInPlace(out, 2.0f);
    EXPECT_EQ(DotCanonical(nullptr, nullptr, 0), 0.0f);
    std::vector<VertexId> no_vertices;
    FeatureMatrix no_features(0, 4);
    Tensor gathered;
    TransferEngine::Gather(no_vertices, no_features, gathered);
    EXPECT_EQ(gathered.rows(), 0u);
  }
}

}  // namespace
}  // namespace gnndm
