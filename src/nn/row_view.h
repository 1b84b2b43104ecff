#ifndef GNNDM_NN_ROW_VIEW_H_
#define GNNDM_NN_ROW_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "tensor/tensor.h"

namespace gnndm {

/// The rows a layer reads as its input, wherever they lie: row s is the
/// cols() floats at base() + map()[s] * cols(), or at base() + s * cols()
/// when map() is null.
///
/// A Tensor converts to the view of its own rows. A batch whose input rows
/// were not staged (the zero-copy and hybrid engines, §7.2) views the
/// feature matrix through its input vertices instead, so the first layer
/// reads each row in place. The layers read the same floats in the same
/// order through either view, so training is byte-identical.
///
/// Non-owning: the viewed storage, and the id list of a feature view,
/// must outlive the view.
class RowView {
 public:
  /// The rows of `t`, in order.
  RowView(const Tensor& t)  // NOLINT(google-explicit-constructor)
      : base_(t.data()), rows_(t.rows()), cols_(t.cols()) {}

  /// Row s is features.row(ids[s]).
  RowView(const FeatureMatrix& features, const std::vector<VertexId>& ids)
      : base_(features.data().data()),
        map_(ids.data()),
        rows_(ids.size()),
        cols_(features.dim()) {
    // Out of range here is a silent wild read in release builds: every
    // sampled id the first layer reads crosses into raw memory here.
    for (VertexId v : ids) {
      GNNDM_DCHECK(v < features.num_vertices())
          << "row view of vertex " << v << " beyond feature matrix";
    }
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  const float* base() const { return base_; }
  /// Storage row of each view row, or null for the identity.
  const uint32_t* map() const { return map_; }

  const float* row(size_t s) const {
    return base_ + static_cast<size_t>(map_ == nullptr ? s : map_[s]) * cols_;
  }

 private:
  const float* base_ = nullptr;
  const uint32_t* map_ = nullptr;
  size_t rows_ = 0;
  size_t cols_ = 0;
};

}  // namespace gnndm

#endif  // GNNDM_NN_ROW_VIEW_H_
