#ifndef GNNDM_GRAPH_DATASET_H_
#define GNNDM_GRAPH_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/csr_graph.h"
#include "graph/generators.h"

namespace gnndm {

/// Allocator of FeatureMatrix storage: 64-byte (cache-line) aligned.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlignment{64};

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) {}

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlignment));
  }
  void deallocate(T* p, size_t n) {
    ::operator delete(p, n * sizeof(T), kAlignment);
  }
  template <typename U>
  bool operator==(const CacheLineAllocator<U>& /*other*/) const {
    return true;
  }
};

/// Dense row-major vertex feature matrix [num_vertices x dim], float32 —
/// the object whose CPU→GPU movement the data-transferring experiments
/// (§7) measure byte-for-byte.
///
/// The storage starts on a cache line, so every row whose width is a
/// multiple of 16 floats (every registry dataset's) spans whole cache
/// lines: a 32-float row is two lines, not three. The first layer reads
/// these rows in place (nn/row_view.h), one random row per sampled edge.
class FeatureMatrix {
 public:
  using Storage = std::vector<float, CacheLineAllocator<float>>;

  FeatureMatrix() = default;
  FeatureMatrix(VertexId num_vertices, uint32_t dim)
      : dim_(dim), data_(static_cast<size_t>(num_vertices) * dim, 0.0f) {}

  uint32_t dim() const { return dim_; }
  VertexId num_vertices() const {
    return dim_ == 0 ? 0 : static_cast<VertexId>(data_.size() / dim_);
  }
  /// Bytes occupied by one vertex's feature vector.
  size_t BytesPerVertex() const { return sizeof(float) * dim_; }

  std::span<const float> row(VertexId v) const {
    return {data_.data() + static_cast<size_t>(v) * dim_, dim_};
  }
  std::span<float> mutable_row(VertexId v) {
    return {data_.data() + static_cast<size_t>(v) * dim_, dim_};
  }
  const Storage& data() const { return data_; }

 private:
  uint32_t dim_ = 0;
  Storage data_;
};

/// 65:10:25 train/validation/test split of the labeled vertices
/// (the ratio used throughout the paper's setup, §4).
struct VertexSplit {
  std::vector<VertexId> train;
  std::vector<VertexId> val;
  std::vector<VertexId> test;
};

/// Uniformly random split with the given fractions (remainder goes to test).
VertexSplit MakeSplit(VertexId num_vertices, double train_fraction,
                      double val_fraction, uint64_t seed);

/// Like MakeSplit but only `labeled_fraction` of the vertices carry
/// ground-truth labels and enter the split at all; the 65:10:25 ratio
/// applies within that labeled subset. Real datasets differ wildly here —
/// Reddit is nearly fully labeled while OGB-Papers has ~1% labels — and
/// the labeled fraction controls how concentrated sampled accesses are
/// (which the caching experiments of §7.3.3 depend on).
VertexSplit MakeLabeledSplit(VertexId num_vertices, double labeled_fraction,
                             double train_fraction, double val_fraction,
                             uint64_t seed);

/// A complete vertex-classification dataset: graph + features + labels +
/// split. Mirrors the role of the paper's Table 2 datasets.
struct Dataset {
  std::string name;
  CsrGraph graph;
  FeatureMatrix features;
  std::vector<int32_t> labels;  ///< labels[v] in [0, num_classes)
  uint32_t num_classes = 0;
  VertexSplit split;
  /// True when the generator produced a power-law (skewed) degree
  /// distribution — the property the caching experiment branches on.
  bool power_law = false;
};

/// Builds features correlated with `labels`: row(v) = centroid[labels[v]] *
/// signal + N(0,1) noise, centroids themselves N(0,1). `signal` controls
/// task difficulty (higher = easier). Deterministic in `seed`.
FeatureMatrix MakeLabelCorrelatedFeatures(const std::vector<int32_t>& labels,
                                          uint32_t num_classes, uint32_t dim,
                                          double signal, uint64_t seed);

/// Options for constructing a synthetic dataset from a community graph.
struct DatasetOptions {
  uint32_t feature_dim = 32;
  double feature_signal = 1.0;
  /// Fraction of labels flipped to a uniformly random class. Features
  /// stay correlated with the *clean* community, so noise is irreducible
  /// error: the achievable accuracy ceiling is roughly
  /// (1 - noise) + noise / num_classes, which is how the registry mirrors
  /// the paper's per-dataset ceilings (Reddit ~96%, Amazon ~65%).
  double label_noise = 0.0;
  /// Fraction of "outlier" vertices whose label is carried by their OWN
  /// feature vector (re-drawn from a different class's centroid with
  /// `outlier_signal` strength) rather than by their community. Heavy
  /// neighborhood smoothing washes these vertices out, which is what
  /// makes over-large fanouts/rates hurt accuracy (the paper's
  /// first-increase-then-decrease curves of Fig 12) and what the
  /// fanout-rate hybrid sampler exploits.
  double outlier_fraction = 0.0;
  double outlier_signal = 2.5;
  /// Outliers are drawn only from vertices whose degree is at least this
  /// multiple of the average degree: real-world idiosyncratic vertices
  /// are the popular hubs (celebrity users, catch-all products). This is
  /// what makes over-large fanouts *lose* accuracy on hubs while
  /// low-degree accuracy stays flat (Fig 12a / Table 7 shapes).
  double outlier_degree_factor = 1.5;
  double labeled_fraction = 1.0;
  double train_fraction = 0.65;
  double val_fraction = 0.10;
};

/// Wraps a generated community graph into a Dataset: labels = community id,
/// label-correlated features, 65:10:25 split.
Dataset MakeCommunityDataset(std::string name, CommunityGraph community_graph,
                             const DatasetOptions& options, uint64_t seed);

/// Registry of scaled-down stand-ins for the paper's nine datasets
/// (Table 2): "reddit_s", "arxiv_s", "products_s", "papers_s", "amazon_s",
/// "livejournal_s", "ljlarge_s", "ljlinks_s", "enwiki_s".
/// Sizes are ~1000x smaller; degree skew, relative density, feature/label
/// cardinality ratios, and the power-law vs non-power-law distinction are
/// preserved. Returns NotFound for unknown names.
Result<Dataset> LoadDataset(const std::string& name, uint64_t seed = 42);

/// Names accepted by LoadDataset, in Table 2 order.
std::vector<std::string> DatasetNames();

}  // namespace gnndm

#endif  // GNNDM_GRAPH_DATASET_H_
