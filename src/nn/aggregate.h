#ifndef GNNDM_NN_AGGREGATE_H_
#define GNNDM_NN_AGGREGATE_H_

#include "nn/row_view.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/tensor.h"

namespace gnndm {

/// Sparse aggregation kernels over a sampled bipartite layer — the graph
/// half of Eq. 1/2 and, per §5.3.1, the dominant computational cost of GNN
/// training (which is why partition analyses count aggregations).

/// Mean over each destination's sampled neighbors *and itself*
/// (GCN-style aggregation with a self loop):
///   out[i] = (src[i] + sum_{u in N(i)} src[u]) / (1 + |N(i)|).
/// Relies on the SampledSubgraph invariant that destination i's own
/// features are src row i. Shapes: src [num_src x d] -> out [num_dst x d].
/// `src` is read through its view: a tensor's rows, or feature rows in
/// place.
void MeanAggregateWithSelf(const SampleLayer& layer, const RowView& src,
                           Tensor& out);

/// Backward of MeanAggregateWithSelf: scatters d_out into d_src
/// (accumulating; caller zeroes d_src). d_src is resized to
/// [num_src x d] if needed.
void MeanAggregateWithSelfBackward(const SampleLayer& layer,
                                   const Tensor& d_out, Tensor& d_src);

/// Mean over sampled neighbors only (GraphSAGE's neighbor branch);
/// destinations with no sampled neighbors get a zero row.
void MeanAggregateNeighbors(const SampleLayer& layer, const RowView& src,
                            Tensor& out);

/// Backward of MeanAggregateNeighbors (accumulating into d_src).
void MeanAggregateNeighborsBackward(const SampleLayer& layer,
                                    const Tensor& d_out, Tensor& d_src);

}  // namespace gnndm

#endif  // GNNDM_NN_AGGREGATE_H_
