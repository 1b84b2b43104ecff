#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "batch/batch_selector.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/batch_source.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "nn/checkpoint.h"
#include "nn/model.h"
#include "nn/row_view.h"
#include "sampling/neighbor_sampler.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "transfer/transfer_engine.h"

namespace gnndm {
namespace {

class BatchSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<Dataset> ds = LoadDataset("arxiv_s", 17);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::move(ds).value();
    RandomBatchSelector selector;
    Rng rng(18);
    batches_ = selector.SelectEpoch(dataset_.split.train, 256, rng);
  }

  std::unique_ptr<BatchSource> Make(const NeighborSampler* sampler,
                                    uint64_t seed, size_t workers,
                                    size_t queue_depth,
                                    bool stage_input = true) {
    BatchSourceOptions options;
    options.workers = workers;
    options.queue_depth = queue_depth;
    options.seed = seed;
    options.stage_input = stage_input;
    return MakeBatchSource(dataset_.graph, dataset_.features, batches_,
                           sampler, options);
  }

  /// Serializes the full delivered stream — indices, seeds, every sampled
  /// frontier and bipartite layer, and the gathered feature bytes (none
  /// from a source that does not stage) — so equality means
  /// byte-identity, the data plane's contract.
  std::string Serialize(BatchSource& source) {
    std::string blob;
    while (auto batch = source.Next()) blob += SerializeBatch(*batch);
    return blob;
  }

  static std::string SerializeBatch(const PreparedBatch& batch) {
    std::string blob;
    auto append = [&blob](const void* data, size_t bytes) {
      blob.append(static_cast<const char*>(data), bytes);
    };
    append(&batch.index, sizeof(batch.index));
    append(batch.seeds.data(), batch.seeds.size() * sizeof(VertexId));
    for (const auto& ids : batch.subgraph.node_ids) {
      append(ids.data(), ids.size() * sizeof(VertexId));
    }
    for (const auto& layer : batch.subgraph.layers) {
      append(&layer.num_src, sizeof(layer.num_src));
      append(&layer.num_dst, sizeof(layer.num_dst));
      append(layer.offsets.data(), layer.offsets.size() * sizeof(uint32_t));
      append(layer.neighbors.data(),
             layer.neighbors.size() * sizeof(uint32_t));
    }
    append(batch.input.data(), batch.input.size() * sizeof(float));
    return blob;
  }

  Dataset dataset_;
  std::vector<std::vector<VertexId>> batches_;
};

TEST_F(BatchSourceTest, InlineDeliversEveryBatchOnceInOrder) {
  NeighborSampler sampler = NeighborSampler::WithFanouts({5, 5});
  auto source = Make(&sampler, 19, /*workers=*/0, /*queue_depth=*/1);
  EXPECT_EQ(source->num_batches(), batches_.size());
  uint32_t expected = 0;
  while (auto batch = source->Next()) {
    EXPECT_EQ(batch->index, expected);
    EXPECT_EQ(batch->seeds, batches_[expected]);
    EXPECT_EQ(batch->input.rows(), batch->subgraph.input_vertices().size());
    ++expected;
  }
  EXPECT_EQ(expected, batches_.size());
  // Exhausted source keeps returning nullopt.
  EXPECT_FALSE(source->Next().has_value());
}

TEST_F(BatchSourceTest, AsyncDeliversEveryBatchOnceInOrder) {
  NeighborSampler sampler = NeighborSampler::WithFanouts({5, 5});
  auto source = Make(&sampler, 19, /*workers=*/4, /*queue_depth=*/3);
  EXPECT_EQ(source->num_batches(), batches_.size());
  uint32_t expected = 0;
  while (auto batch = source->Next()) {
    EXPECT_EQ(batch->index, expected);
    EXPECT_EQ(batch->seeds, batches_[expected]);
    EXPECT_EQ(batch->input.rows(), batch->subgraph.input_vertices().size());
    ++expected;
  }
  EXPECT_EQ(expected, batches_.size());
  EXPECT_FALSE(source->Next().has_value());
}

TEST_F(BatchSourceTest, ByteIdenticalAcrossImplementationsAndKnobs) {
  // Workers and prefetch depth are pure performance knobs: the delivered
  // stream must be byte-identical whether batches are prepared inline on
  // the calling thread or by 1/4/8 producers running 1 or 16 ahead.
  NeighborSampler sampler = NeighborSampler::WithFanouts({5, 5});
  const std::string inline_blob = Serialize(*Make(&sampler, 29, 0, 1));
  EXPECT_FALSE(inline_blob.empty());
  EXPECT_EQ(inline_blob, Serialize(*Make(&sampler, 29, 1, 1)));
  EXPECT_EQ(inline_blob, Serialize(*Make(&sampler, 29, 4, 16)));
  EXPECT_EQ(inline_blob, Serialize(*Make(&sampler, 29, 8, 1)));
  EXPECT_EQ(inline_blob, Serialize(*Make(&sampler, 29, 8, 16)));
}

TEST_F(BatchSourceTest, NonStagingSourceDeliversTheStagingSourcesBatches) {
  // Under zero-copy and hybrid the producers only sample: the same seeds
  // and subgraphs as a staging source, byte for byte, inline and async,
  // with no input tensor. The rows the first layer then reads in place
  // are the rows the staging source gathered.
  NeighborSampler sampler = NeighborSampler::WithFanouts({5, 5});
  for (size_t workers : {size_t{0}, size_t{4}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    auto staging = Make(&sampler, 37, workers, 3);
    auto sampling = Make(&sampler, 37, workers, 3, /*stage_input=*/false);
    size_t delivered = 0;
    while (auto want = staging->Next()) {
      std::optional<PreparedBatch> got = sampling->Next();
      ASSERT_TRUE(got.has_value());
      EXPECT_TRUE(got->input.empty());
      const RowView rows = got->InputRows(dataset_.features);
      ASSERT_EQ(rows.rows(), want->input.rows());
      for (size_t r = 0; r < rows.rows(); ++r) {
        ASSERT_EQ(std::memcmp(rows.row(r), want->input.row(r).data(),
                              want->input.cols() * sizeof(float)),
                  0)
            << "row " << r;
      }
      want->input = Tensor();
      EXPECT_EQ(SerializeBatch(*got), SerializeBatch(*want));
      ++delivered;
    }
    EXPECT_FALSE(sampling->Next().has_value());
    EXPECT_EQ(delivered, batches_.size());
  }
}

TEST_F(BatchSourceTest, GatheredFeaturesMatchDirectGather) {
  NeighborSampler sampler = NeighborSampler::WithFanouts({4, 4});
  auto source = Make(&sampler, 23, /*workers=*/2, /*queue_depth=*/2);
  auto batch = source->Next();
  ASSERT_TRUE(batch.has_value());
  Tensor expected;
  TransferEngine::Gather(batch->subgraph.input_vertices(),
                         dataset_.features, expected);
  ASSERT_EQ(batch->input.rows(), expected.rows());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(batch->input.data()[i], expected.data()[i]);
  }
}

TEST_F(BatchSourceTest, NullSamplerYieldsSeedOnlyBatches) {
  // The MLP/DNN baseline trains on independent samples: no sampler, the
  // "subgraph" is exactly the seed rows.
  auto check = [&](size_t workers) {
    auto source = Make(nullptr, 31, workers, 4);
    uint32_t expected = 0;
    while (auto batch = source->Next()) {
      ASSERT_EQ(batch->subgraph.node_ids.size(), 1u);
      EXPECT_EQ(batch->subgraph.node_ids[0], batches_[expected]);
      EXPECT_EQ(batch->input.rows(), batch->seeds.size());
      ++expected;
    }
    EXPECT_EQ(expected, batches_.size());
  };
  check(0);
  check(3);
}

TEST_F(BatchSourceTest, ShutdownMidEpochWithFullReorderBuffer) {
  // Destroying the source mid-epoch — producers parked on a full window,
  // reorder buffer loaded — must wake and join every worker without
  // deadlock or leaks (the asan/tsan legs make this a real check).
  NeighborSampler sampler = NeighborSampler::WithFanouts({5, 5});
  ASSERT_GT(batches_.size(), 4u);
  AsyncBatchSource source(dataset_.graph, dataset_.features, batches_,
                          &sampler, 25, /*queue_depth=*/2, /*workers=*/4);
  auto first = source.Next();
  EXPECT_TRUE(first.has_value());
  // Wait until the window is actually full so the destructor exercises
  // the blocked-producer path, not just idle threads.
  while (source.buffered() < 2) std::this_thread::yield();
  // Destructor runs here with undelivered batches and parked producers.
}

TEST_F(BatchSourceTest, FullGraphBatchIsTheWholeGraph) {
  const PreparedBatch batch =
      FullGraphBatch(dataset_.graph, /*num_layers=*/2);
  const VertexId n = dataset_.graph.num_vertices();
  EXPECT_EQ(batch.index, 0u);
  EXPECT_EQ(batch.seeds.size(), n);
  ASSERT_EQ(batch.subgraph.node_ids.size(), 3u);
  for (const auto& ids : batch.subgraph.node_ids) {
    EXPECT_EQ(ids.size(), n);
  }
  ASSERT_EQ(batch.subgraph.layers.size(), 2u);
  EXPECT_EQ(batch.subgraph.layers[0].neighbors.size(),
            dataset_.graph.num_edges());
  // Nothing is staged: the first layer reads every feature row in place.
  EXPECT_TRUE(batch.input.empty());
  const RowView rows = batch.InputRows(dataset_.features);
  ASSERT_EQ(rows.rows(), n);
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_EQ(rows.row(v), dataset_.features.row(v).data()) << v;
  }
}

TEST_F(BatchSourceTest, FullGraphBatchOfAZeroHopModelIsTheVertexList) {
  // The MLP baseline has no hops: one level of every vertex, no layers.
  const PreparedBatch batch =
      FullGraphBatch(dataset_.graph, /*num_layers=*/0);
  const VertexId n = dataset_.graph.num_vertices();
  ASSERT_EQ(batch.subgraph.node_ids.size(), 1u);
  EXPECT_EQ(batch.subgraph.seeds().size(), n);
  EXPECT_TRUE(batch.subgraph.layers.empty());
  EXPECT_TRUE(batch.subgraph.Validate(n).ok());
}

ModelConfig SmallModelConfig() {
  ModelConfig config;
  config.in_dim = 32;
  config.hidden_dim = 8;
  config.num_classes = 16;
  config.dropout = 0.0;
  config.seed = 3;
  return config;
}

TEST(CheckpointTest, RoundTripRestoresExactWeights) {
  Gcn model(SmallModelConfig());
  const std::string path =
      std::string(::testing::TempDir()) + "/model.gnck";
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());

  // A second model with different init must produce different weights,
  // then identical ones after restore.
  ModelConfig other_config = SmallModelConfig();
  other_config.seed = 99;
  Gcn restored(other_config);
  bool differed = false;
  {
    auto a = model.Parameters();
    auto b = restored.Parameters();
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i]->value.data()[0] != b[i]->value.data()[0]) differed = true;
    }
  }
  EXPECT_TRUE(differed);

  ASSERT_TRUE(LoadCheckpoint(restored, path).ok());
  auto a = model.Parameters();
  auto b = restored.Parameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i]->value.size(), b[i]->value.size());
    for (size_t j = 0; j < a[i]->value.size(); ++j) {
      EXPECT_EQ(a[i]->value.data()[j], b[i]->value.data()[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsMismatchedArchitecture) {
  Gcn model(SmallModelConfig());
  const std::string path =
      std::string(::testing::TempDir()) + "/model2.gnck";
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());

  ModelConfig bigger = SmallModelConfig();
  bigger.hidden_dim = 16;  // different shapes
  Gcn other(bigger);
  Status status = LoadCheckpoint(other, path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);

  GraphSage different_arch(SmallModelConfig());  // different param names
  EXPECT_FALSE(LoadCheckpoint(different_arch, path).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  Gcn model(SmallModelConfig());
  EXPECT_EQ(LoadCheckpoint(model, "/no/such/checkpoint").code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace gnndm
