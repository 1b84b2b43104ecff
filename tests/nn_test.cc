#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "graph/generators.h"
#include "nn/aggregate.h"
#include "nn/layers.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "nn/parameter.h"
#include "nn/row_view.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "transfer/transfer_engine.h"

namespace gnndm {
namespace {

/// A tiny 1-layer bipartite block: 2 destinations, 4 sources.
/// dst 0 has neighbors {2, 3}, dst 1 has neighbor {3}.
SampleLayer TinyLayer() {
  SampleLayer layer;
  layer.num_src = 4;
  layer.num_dst = 2;
  layer.offsets = {0, 2, 3};
  layer.neighbors = {2, 3, 3};
  return layer;
}

TEST(AggregateTest, MeanWithSelfKnownValues) {
  SampleLayer layer = TinyLayer();
  Tensor src(4, 1);
  src.at(0, 0) = 1.0f;  // dst 0's own features
  src.at(1, 0) = 2.0f;  // dst 1's own features
  src.at(2, 0) = 4.0f;
  src.at(3, 0) = 8.0f;
  Tensor out;
  MeanAggregateWithSelf(layer, src, out);
  EXPECT_NEAR(out.at(0, 0), (1.0 + 4.0 + 8.0) / 3.0, 1e-6);
  EXPECT_NEAR(out.at(1, 0), (2.0 + 8.0) / 2.0, 1e-6);
}

TEST(AggregateTest, MeanNeighborsZeroRowWhenNoNeighbors) {
  SampleLayer layer;
  layer.num_src = 1;
  layer.num_dst = 1;
  layer.offsets = {0, 0};
  Tensor src(1, 2);
  src.Fill(3.0f);
  Tensor out;
  MeanAggregateNeighbors(layer, src, out);
  EXPECT_EQ(out.at(0, 0), 0.0f);
  EXPECT_EQ(out.at(0, 1), 0.0f);
}

TEST(AggregateTest, ForwardBackwardAreAdjoint) {
  // <Agg(x), y> == <x, AggBackward(y)> for linear aggregation.
  SampleLayer layer = TinyLayer();
  Rng rng(1);
  Tensor x(4, 3), y(2, 3);
  XavierInit(x, rng);
  XavierInit(y, rng);

  Tensor ax;
  MeanAggregateWithSelf(layer, x, ax);
  double lhs = 0.0;
  for (size_t i = 0; i < ax.size(); ++i) lhs += ax.data()[i] * y.data()[i];

  Tensor aty(4, 3);
  MeanAggregateWithSelfBackward(layer, y, aty);
  double rhs = 0.0;
  for (size_t i = 0; i < x.size(); ++i) rhs += x.data()[i] * aty.data()[i];
  EXPECT_NEAR(lhs, rhs, 1e-5);
}

TEST(AggregateTest, NeighborsForwardBackwardAreAdjoint) {
  SampleLayer layer = TinyLayer();
  Rng rng(2);
  Tensor x(4, 2), y(2, 2);
  XavierInit(x, rng);
  XavierInit(y, rng);
  Tensor ax;
  MeanAggregateNeighbors(layer, x, ax);
  double lhs = 0.0;
  for (size_t i = 0; i < ax.size(); ++i) lhs += ax.data()[i] * y.data()[i];
  Tensor aty(4, 2);
  MeanAggregateNeighborsBackward(layer, y, aty);
  double rhs = 0.0;
  for (size_t i = 0; i < x.size(); ++i) rhs += x.data()[i] * aty.data()[i];
  EXPECT_NEAR(lhs, rhs, 1e-5);
}

/// Numerical gradient check of a whole model: compares the analytic
/// directional derivative along the gradient itself against central
/// differences. A directional probe perturbs every unit by a tiny amount,
/// which keeps ReLU units from flipping sides (the failure mode of
/// per-coordinate finite differences on float32 nets); per-coordinate
/// checks for the ReLU-free layers live in LayerGradTest below.
void CheckModelGradients(GnnModel& model, const SampledSubgraph& sg,
                         const Tensor& input,
                         const std::vector<int32_t>& labels) {
  auto loss_fn = [&]() {
    // Models below are built with dropout = 0, so train=true is
    // deterministic.
    const Tensor& logits = model.Forward(sg, input, /*train=*/true);
    Tensor unused;
    return SoftmaxCrossEntropy(logits, labels, unused);
  };

  // Analytic gradients.
  for (Parameter* p : model.Parameters()) p->ZeroGrad();
  const Tensor& logits = model.Forward(sg, input, true);
  Tensor d_logits;
  SoftmaxCrossEntropy(logits, labels, d_logits);
  model.Backward(sg, d_logits);

  // Direction d = g / ||g||; analytic directional derivative = ||g||.
  double norm_sq = 0.0;
  for (Parameter* p : model.Parameters()) {
    for (size_t i = 0; i < p->grad.size(); ++i) {
      norm_sq += static_cast<double>(p->grad.data()[i]) * p->grad.data()[i];
    }
  }
  const double norm = std::sqrt(norm_sq);
  ASSERT_GT(norm, 1e-6);

  const double t = 1e-3;
  auto shift = [&](double scale) {
    for (Parameter* p : model.Parameters()) {
      for (size_t i = 0; i < p->value.size(); ++i) {
        p->value.data()[i] += static_cast<float>(
            scale * p->grad.data()[i] / norm);
      }
    }
  };
  shift(t);
  const double lp = loss_fn();
  shift(-2 * t);
  const double lm = loss_fn();
  shift(t);  // restore
  const double numeric = (lp - lm) / (2 * t);
  EXPECT_NEAR(numeric, norm, 0.05 * norm + 1e-4);
}

struct ModelFixture {
  CommunityGraph cg;
  SampledSubgraph sg;
  Tensor input;
  std::vector<int32_t> labels;
  FeatureMatrix features;

  explicit ModelFixture(uint64_t seed) {
    cg = GeneratePlantedPartition(200, 4, 10.0, 1.0, seed);
    NeighborSampler sampler = NeighborSampler::WithFanouts({4, 4});
    Rng rng(seed + 1);
    std::vector<VertexId> seeds{1, 17, 42, 99, 150};
    sg = sampler.Sample(cg.graph, seeds, rng);
    std::vector<int32_t> all_labels(cg.community.begin(),
                                    cg.community.end());
    features = MakeLabelCorrelatedFeatures(all_labels, 4, 8, 1.0, seed + 2);
    TransferEngine::Gather(sg.input_vertices(), features, input);
    for (VertexId v : seeds) labels.push_back(all_labels[v]);
  }
};

ModelConfig NoDropoutConfig() {
  ModelConfig config;
  config.in_dim = 8;
  config.hidden_dim = 6;
  config.num_classes = 4;
  config.num_conv_layers = 2;
  config.num_mlp_layers = 2;
  config.dropout = 0.0;  // deterministic forward for finite differences
  config.seed = 5;
  return config;
}

/// One ReLU-free layer under softmax cross-entropy, for per-coordinate
/// finite differences (kink-free, unlike a ReLU layer). `forward` runs
/// the layer on `input`; `backward` is the layer's Backward.
struct LayerUnderTest {
  std::function<const Tensor&()> forward;
  std::function<void(Tensor&, Tensor*)> backward;
  std::vector<Parameter*> params;
  Tensor& input;
  std::vector<int32_t> labels;

  double Loss() const {
    Tensor unused;
    return SoftmaxCrossEntropy(forward(), labels, unused);
  }

  /// Central differences of the loss in every coordinate of `values`,
  /// compared with `analytic`.
  void ExpectSlopes(Tensor& values, const Tensor& analytic,
                    const std::string& what) const {
    ASSERT_EQ(values.rows(), analytic.rows()) << what;
    ASSERT_EQ(values.cols(), analytic.cols()) << what;
    const double eps = 1e-2;
    for (size_t idx = 0; idx < values.size(); ++idx) {
      const float original = values.data()[idx];
      values.data()[idx] = original + static_cast<float>(eps);
      const double lp = Loss();
      values.data()[idx] = original - static_cast<float>(eps);
      const double lm = Loss();
      values.data()[idx] = original;
      EXPECT_NEAR(analytic.data()[idx], (lp - lm) / (2 * eps), 2e-3)
          << what << "[" << idx << "]";
    }
  }

  /// Checks every parameter gradient Backward accumulates and the input
  /// gradient it returns: conv 1 and above, and every Linear but a
  /// model's first, hand the latter down the chain.
  void ExpectCoordinateGradients() const {
    for (Parameter* p : params) p->ZeroGrad();
    Tensor d_logits;
    SoftmaxCrossEntropy(forward(), labels, d_logits);
    Tensor d_input;
    backward(d_logits, &d_input);
    for (Parameter* p : params) ExpectSlopes(p->value, p->grad, p->name);
    ExpectSlopes(input, d_input, "input");
  }
};

TEST(LayerGradTest, LinearNoReluCoordinateGradients) {
  Rng rng(30);
  Linear layer("lin", 5, 3, /*relu=*/false, rng);
  Tensor x(4, 5);
  XavierInit(x, rng);
  LayerUnderTest{[&]() -> const Tensor& { return layer.Forward(x); },
                 [&](Tensor& d_out, Tensor* d_x) {
                   layer.Backward(d_out, d_x);
                 },
                 layer.Parameters(), x, {0, 1, 2, 0}}
      .ExpectCoordinateGradients();
}

TEST(LayerGradTest, GcnConvNoReluCoordinateGradients) {
  Rng rng(31);
  SampleLayer block = TinyLayer();
  GcnConv conv("conv", 4, 3, /*relu=*/false, rng);
  Tensor src(4, 4);
  XavierInit(src, rng);
  LayerUnderTest{[&]() -> const Tensor& { return conv.Forward(block, src); },
                 [&](Tensor& d_out, Tensor* d_src) {
                   conv.Backward(block, d_out, d_src);
                 },
                 conv.Parameters(), src, {1, 2}}
      .ExpectCoordinateGradients();
}

TEST(LayerGradTest, SageConvNoReluCoordinateGradients) {
  Rng rng(32);
  SampleLayer block = TinyLayer();
  SageConv conv("sage", 4, 3, /*relu=*/false, rng);
  Tensor src(4, 4);
  XavierInit(src, rng);
  LayerUnderTest{[&]() -> const Tensor& { return conv.Forward(block, src); },
                 [&](Tensor& d_out, Tensor* d_src) {
                   conv.Backward(block, d_out, d_src);
                 },
                 conv.Parameters(), src, {0, 2}}
      .ExpectCoordinateGradients();
}

TEST(ModelTest, GcnGradientsMatchNumerical) {
  ModelFixture fx(10);
  Gcn model(NoDropoutConfig());
  CheckModelGradients(model, fx.sg, fx.input, fx.labels);
}

TEST(ModelTest, GraphSageGradientsMatchNumerical) {
  ModelFixture fx(11);
  GraphSage model(NoDropoutConfig());
  CheckModelGradients(model, fx.sg, fx.input, fx.labels);
}

TEST(ModelTest, MlpGradientsMatchNumerical) {
  ModelFixture fx(12);
  Mlp model(NoDropoutConfig());
  CheckModelGradients(model, fx.sg, fx.input, fx.labels);
}

/// Parameter gradients of one forward/backward of `model` on the
/// fixture, in Parameters() order.
std::vector<Tensor> ModelGradients(GnnModel& model, const ModelFixture& fx) {
  for (Parameter* p : model.Parameters()) p->ZeroGrad();
  Tensor d_logits;
  SoftmaxCrossEntropy(model.Forward(fx.sg, fx.input, /*train=*/true),
                      fx.labels, d_logits);
  model.Backward(fx.sg, d_logits);
  std::vector<Tensor> grads;
  for (Parameter* p : model.Parameters()) grads.push_back(p->grad);
  return grads;
}

/// The same gradients through standalone layers that always compute
/// their input gradient: `num_convs` ReLU convs, then ReLU Linears and
/// an output Linear, loaded with `model`'s weights. With no convs (the
/// MLP) the first Linear reads the seed rows, as Mlp::Forward does.
template <typename Conv>
std::vector<Tensor> FullChainGradients(GnnModel& model,
                                       const ModelFixture& fx,
                                       const ModelConfig& config,
                                       size_t num_convs,
                                       size_t num_linears) {
  Rng rng(0);
  std::vector<Conv> convs;
  std::vector<Linear> linears;
  std::vector<Parameter*> params;
  size_t dim = config.in_dim;
  for (size_t l = 0; l < num_convs; ++l) {
    convs.emplace_back("conv", dim, config.hidden_dim, /*relu=*/true, rng);
    dim = config.hidden_dim;
  }
  for (size_t l = 0; l < num_linears; ++l) {
    const bool last = l + 1 == num_linears;
    const size_t out = last ? config.num_classes : config.hidden_dim;
    linears.emplace_back("fc", dim, out, /*relu=*/!last, rng);
    dim = out;
  }
  for (Conv& conv : convs) {
    for (Parameter* p : conv.Parameters()) params.push_back(p);
  }
  for (Linear& linear : linears) {
    for (Parameter* p : linear.Parameters()) params.push_back(p);
  }
  const std::vector<Parameter*> model_params = model.Parameters();
  EXPECT_EQ(params.size(), model_params.size());
  for (size_t i = 0; i < params.size() && i < model_params.size(); ++i) {
    params[i]->value = model_params[i]->value;
    params[i]->ZeroGrad();
  }

  Tensor h = fx.input;
  if (num_convs == 0) {
    h.Resize(fx.labels.size(), fx.input.cols());
    std::memcpy(h.data(), fx.input.data(), h.size() * sizeof(float));
  }
  for (size_t l = 0; l < convs.size(); ++l) {
    h = convs[l].Forward(fx.sg.layers[l], h);
  }
  for (Linear& linear : linears) h = linear.Forward(h);
  Tensor grad;
  SoftmaxCrossEntropy(h, fx.labels, grad);
  Tensor next;
  for (size_t l = linears.size(); l-- > 0;) {
    linears[l].Backward(grad, &next);
    std::swap(grad, next);
  }
  for (size_t l = convs.size(); l-- > 0;) {
    convs[l].Backward(fx.sg.layers[l], grad, &next);
    std::swap(grad, next);
  }
  std::vector<Tensor> grads;
  for (Parameter* p : params) grads.push_back(p->grad);
  return grads;
}

void ExpectSameBytes(const std::vector<Tensor>& got,
                     const std::vector<Tensor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].rows(), want[i].rows()) << "parameter " << i;
    ASSERT_EQ(got[i].cols(), want[i].cols()) << "parameter " << i;
    EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(),
                          got[i].size() * sizeof(float)),
              0)
        << "parameter " << i;
  }
}

// A model skips the input gradient of its first layer; its parameter
// gradients must be the bytes a chain computing every input gradient
// produces.
TEST(ModelTest, SkippedInputGradientLeavesParameterGradientsBitIdentical) {
  const ModelConfig config = NoDropoutConfig();
  const size_t convs = config.num_conv_layers;
  const size_t heads = config.num_mlp_layers;
  {
    ModelFixture fx(14);
    Gcn model(config);
    ExpectSameBytes(ModelGradients(model, fx),
                    FullChainGradients<GcnConv>(model, fx, config, convs,
                                                heads));
  }
  {
    ModelFixture fx(15);
    GraphSage model(config);
    ExpectSameBytes(ModelGradients(model, fx),
                    FullChainGradients<SageConv>(model, fx, config, convs,
                                                 heads));
  }
  {
    ModelFixture fx(16);
    Mlp model(config);
    ExpectSameBytes(ModelGradients(model, fx),
                    FullChainGradients<GcnConv>(model, fx, config, 0,
                                                convs + heads));
  }
}

// The first layer reads its rows through a view: the feature matrix in
// place (zero-copy, hybrid) or a staged tensor (extract-load). Both must
// give every model the same logits and parameter gradients, byte for
// byte. 19 features exercise the 8-wide lanes and their tail; dropout
// draws from the model's generator on both sides.
TEST(ModelTest, InPlaceRowsMatchStagedRowsByteForByte) {
  CommunityGraph cg = GeneratePlantedPartition(300, 4, 10.0, 1.0, 61);
  const std::vector<int32_t> all_labels(cg.community.begin(),
                                        cg.community.end());
  const FeatureMatrix features =
      MakeLabelCorrelatedFeatures(all_labels, 4, 19, 1.0, 62);
  NeighborSampler sampler = NeighborSampler::WithFanouts({6, 4});
  Rng rng(63);
  const std::vector<VertexId> seeds{3, 50, 77, 120, 200, 299};
  const SampledSubgraph sg = sampler.Sample(cg.graph, seeds, rng);
  Tensor staged;
  TransferEngine::Gather(sg.input_vertices(), features, staged);
  std::vector<int32_t> labels;
  for (VertexId v : seeds) labels.push_back(all_labels[v]);

  ModelConfig config;
  config.in_dim = 19;
  config.hidden_dim = 12;
  config.num_classes = 4;
  config.dropout = 0.3;
  config.seed = 64;
  for (const char* name : {"gcn", "graphsage", "mlp"}) {
    SCOPED_TRACE(name);
    std::unique_ptr<GnnModel> in_place = MakeModel(name, config);
    std::unique_ptr<GnnModel> copied = MakeModel(name, config);
    const Tensor& got = in_place->Forward(
        sg, RowView(features, sg.input_vertices()), /*train=*/true);
    const Tensor& want = copied->Forward(sg, staged, /*train=*/true);
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0);
    Tensor d_got;
    Tensor d_want;
    SoftmaxCrossEntropy(got, labels, d_got);
    SoftmaxCrossEntropy(want, labels, d_want);
    in_place->Backward(sg, d_got);
    copied->Backward(sg, d_want);
    std::vector<Tensor> got_grads;
    std::vector<Tensor> want_grads;
    for (Parameter* p : in_place->Parameters()) got_grads.push_back(p->grad);
    for (Parameter* p : copied->Parameters()) want_grads.push_back(p->grad);
    ExpectSameBytes(got_grads, want_grads);
  }
}

TEST(ModelTest, ForwardShapesMatchSeeds) {
  ModelFixture fx(13);
  for (const char* name : {"gcn", "graphsage", "mlp"}) {
    auto model = MakeModel(name, NoDropoutConfig());
    ASSERT_NE(model, nullptr) << name;
    const Tensor& logits = model->Forward(fx.sg, fx.input, false);
    EXPECT_EQ(logits.rows(), fx.labels.size()) << name;
    EXPECT_EQ(logits.cols(), 4u) << name;
  }
}

TEST(ModelTest, FactoryRejectsUnknownName) {
  EXPECT_EQ(MakeModel("transformer", NoDropoutConfig()), nullptr);
}

TEST(ModelTest, NumParametersIsPositiveAndStable) {
  Gcn model(NoDropoutConfig());
  size_t n = model.NumParameters();
  EXPECT_GT(n, 0u);
  EXPECT_EQ(model.NumParameters(), n);
}

TEST(OptimizerTest, SgdDescendsQuadratic) {
  // Minimize f(w) = 0.5 * w^2 by hand-feeding grad = w.
  Parameter w("w", 1, 1);
  w.value.at(0, 0) = 4.0f;
  Sgd sgd({&w}, /*lr=*/0.1f);
  for (int i = 0; i < 100; ++i) {
    w.grad.at(0, 0) = w.value.at(0, 0);
    sgd.Step();
  }
  EXPECT_NEAR(w.value.at(0, 0), 0.0f, 1e-3);
}

TEST(OptimizerTest, SgdMomentumAcceleratesDescent) {
  Parameter a("a", 1, 1), b("b", 1, 1);
  a.value.at(0, 0) = b.value.at(0, 0) = 4.0f;
  Sgd plain({&a}, 0.01f);
  Sgd momentum({&b}, 0.01f, 0.9f);
  for (int i = 0; i < 50; ++i) {
    a.grad.at(0, 0) = a.value.at(0, 0);
    plain.Step();
    b.grad.at(0, 0) = b.value.at(0, 0);
    momentum.Step();
  }
  EXPECT_LT(std::abs(b.value.at(0, 0)), std::abs(a.value.at(0, 0)));
}

TEST(OptimizerTest, AdamDescendsQuadratic) {
  Parameter w("w", 1, 1);
  w.value.at(0, 0) = 4.0f;
  Adam adam({&w}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    w.grad.at(0, 0) = w.value.at(0, 0);
    adam.Step();
  }
  EXPECT_NEAR(w.value.at(0, 0), 0.0f, 1e-2);
}

TEST(OptimizerTest, StepZeroesGradients) {
  Parameter w("w", 2, 2);
  w.grad.Fill(1.0f);
  Adam adam({&w}, 0.01f);
  adam.Step();
  EXPECT_DOUBLE_EQ(w.grad.Norm(), 0.0);
}

TEST(LayersTest, DropoutMaskScalesAndZeroes) {
  Rng rng(6);
  Dropout dropout(0.5);
  Tensor x(10, 10);
  x.Fill(1.0f);
  dropout.Forward(x, /*train=*/true, rng);
  int zeros = 0, scaled = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x.data()[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(x.data()[i], 2.0f, 1e-6);
      ++scaled;
    }
  }
  EXPECT_GT(zeros, 20);
  EXPECT_GT(scaled, 20);
}

/// The dropout loop the layer replaced, kept as its reference: one
/// UniformReal() per element and a branch on the draw.
void ReferenceDropoutForward(double rate, Tensor& x, Rng& rng,
                             std::vector<uint8_t>& mask) {
  mask.resize(x.size());
  const float scale = 1.0f / static_cast<float>(1.0 - rate);
  float* p = x.data();
  for (size_t i = 0; i < x.size(); ++i) {
    if (rng.UniformReal() < rate) {
      mask[i] = 0;
      p[i] = 0.0f;
    } else {
      mask[i] = 1;
      p[i] *= scale;
    }
  }
}

void ReferenceDropoutBackward(double rate, const std::vector<uint8_t>& mask,
                              Tensor& d_x) {
  const float scale = 1.0f / static_cast<float>(1.0 - rate);
  float* p = d_x.data();
  for (size_t i = 0; i < d_x.size(); ++i) {
    p[i] = mask[i] ? p[i] * scale : 0.0f;
  }
}

/// Random values with signed zeros, NaN, infinities and subnormals
/// mixed in.
Tensor DropoutInput(size_t rows, size_t cols, uint64_t seed) {
  Tensor t(rows, cols);
  Rng rng(seed);
  for (size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng.UniformReal() * 4.0 - 2.0);
  }
  const float specials[] = {-0.0f,
                            0.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(),
                            -1.0e-40f};
  for (size_t i = 0; i < t.size(); i += 3) {
    t.data()[i] = specials[(i / 3) % std::size(specials)];
  }
  return t;
}

TEST(LayersTest, DropoutMatchesReferenceLoop) {
  const double rates[] = {0.1, 0.5, 1.0 / 3.0, 0x1.0p-53,
                          std::nextafter(1.0, 0.0)};
  for (double rate : rates) {
    SCOPED_TRACE(rate);
    Tensor x = DropoutInput(37, 129, 11), want_x = x;
    Rng rng(42), want_rng(42);
    Dropout dropout(rate);
    dropout.Forward(x, /*train=*/true, rng);
    std::vector<uint8_t> want_mask;
    ReferenceDropoutForward(rate, want_x, want_rng, want_mask);
    ExpectSameBytes({x}, {want_x});
    EXPECT_EQ(rng.Next(), want_rng.Next());

    // Backward through a gradient of ones exposes the mask itself.
    Tensor ones(37, 129);
    ones.Fill(1.0f);
    dropout.Backward(ones);
    std::vector<uint8_t> mask(ones.size());
    for (size_t i = 0; i < ones.size(); ++i) {
      mask[i] = ones.data()[i] != 0.0f;
    }
    EXPECT_EQ(mask, want_mask);

    Tensor d_x = DropoutInput(37, 129, 12), want_d_x = d_x;
    dropout.Backward(d_x);
    ReferenceDropoutBackward(rate, want_mask, want_d_x);
    ExpectSameBytes({d_x}, {want_d_x});
  }
}

TEST(LayersTest, DropoutInactiveAtEval) {
  Rng rng(7);
  Dropout dropout(0.9);
  Tensor x(4, 4);
  x.Fill(3.0f);
  dropout.Forward(x, /*train=*/false, rng);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x.data()[i], 3.0f);
}

TEST(TrainingTest, GcnLearnsCommunityLabels) {
  // End-to-end learnability: a 2-layer GCN must beat random guessing by a
  // wide margin on a planted-partition dataset within a few epochs.
  CommunityGraph cg = GeneratePowerLawCommunity(1500, 4, 15.0, 1.5, 20);
  DatasetOptions options;
  options.feature_dim = 16;
  Dataset ds = MakeCommunityDataset("tiny", std::move(cg), options, 21);

  ModelConfig config;
  config.in_dim = 16;
  config.hidden_dim = 16;
  config.num_classes = ds.num_classes;
  config.dropout = 0.1;
  config.seed = 22;
  Gcn model(config);
  Adam adam(model.Parameters(), 0.01f);
  NeighborSampler sampler = NeighborSampler::WithFanouts({10, 5});
  Rng rng(23);

  for (int epoch = 0; epoch < 5; ++epoch) {
    std::vector<VertexId> order = ds.split.train;
    rng.Shuffle(order);
    for (size_t begin = 0; begin < order.size(); begin += 256) {
      size_t end = std::min(order.size(), begin + 256);
      std::vector<VertexId> batch(order.begin() + begin,
                                  order.begin() + end);
      SampledSubgraph sg = sampler.Sample(ds.graph, batch, rng);
      Tensor input;
      TransferEngine::Gather(sg.input_vertices(), ds.features, input);
      const Tensor& logits = model.Forward(sg, input, true);
      std::vector<int32_t> labels;
      for (VertexId v : batch) labels.push_back(ds.labels[v]);
      Tensor d_logits;
      SoftmaxCrossEntropy(logits, labels, d_logits);
      model.Backward(sg, d_logits);
      adam.Step();
    }
  }

  // Validation accuracy.
  SampledSubgraph sg = sampler.Sample(ds.graph, ds.split.val, rng);
  Tensor input;
  TransferEngine::Gather(sg.input_vertices(), ds.features, input);
  const Tensor& logits = model.Forward(sg, input, false);
  std::vector<int32_t> preds = ArgmaxRows(logits);
  uint32_t correct = 0;
  for (size_t i = 0; i < ds.split.val.size(); ++i) {
    if (preds[i] == ds.labels[ds.split.val[i]]) ++correct;
  }
  double accuracy =
      static_cast<double>(correct) / ds.split.val.size();
  EXPECT_GT(accuracy, 0.6) << "random guess would be 0.25";
}

}  // namespace
}  // namespace gnndm
