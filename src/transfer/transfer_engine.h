#ifndef GNNDM_TRANSFER_TRANSFER_ENGINE_H_
#define GNNDM_TRANSFER_TRANSFER_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "tensor/tensor.h"
#include "transfer/device_model.h"
#include "transfer/feature_cache.h"

namespace gnndm {

/// Outcome of moving one batch's input features to the (simulated) GPU.
struct TransferStats {
  /// CPU-side gather time ("Extract" — zero for zero-copy engines).
  double extract_seconds = 0.0;
  /// PCIe time ("Load" / UVA reads).
  double transfer_seconds = 0.0;
  uint64_t bytes_moved = 0;
  uint64_t rows_requested = 0;
  uint64_t rows_from_cache = 0;

  double TotalSeconds() const { return extract_seconds + transfer_seconds; }
};

/// Moves a batch's input feature rows host→device. The data path is real
/// and follows the engine: an engine that extracts() has the BatchSource
/// producer Gather each batch's rows into a staging tensor, its CPU
/// extract stage, and the NN reads that tensor; under the others the NN's
/// first layer reads the rows in place from the feature matrix, as GPU
/// threads read host memory under zero-copy. Only the PCIe/DMA timing is
/// simulated per the DeviceModel, by Cost. Rows present in `cache` cost
/// nothing to move — they already reside in GPU memory.
class TransferEngine {
 public:
  virtual ~TransferEngine() = default;

  /// Accounting only: the modeled cost of moving these rows, without
  /// touching any data. `cache` may be null (no caching).
  virtual TransferStats Cost(const std::vector<VertexId>& vertices,
                             const FeatureMatrix& features,
                             const FeatureCache* cache) const = 0;

  virtual std::string name() const = 0;

  /// True when the CPU gathers each batch's rows into a staging buffer
  /// before they move: the "Extract" stage that Cost charges as
  /// extract_seconds.
  virtual bool extracts() const = 0;

  /// Functional gather of feature rows into a dense tensor: row i of
  /// `out` = features of vertices[i], whichever engine moved them.
  static void Gather(const std::vector<VertexId>& vertices,
                     const FeatureMatrix& features, Tensor& out);
};

/// Explicit transfer ("Extract-Load", §7.2): the CPU gathers scattered
/// rows into a contiguous staging buffer, then one DMA ships it. Pays the
/// extraction cost but uses the full PCIe bandwidth.
class ExtractLoadTransfer : public TransferEngine {
 public:
  explicit ExtractLoadTransfer(const DeviceModel& device)
      : device_(device) {}
  TransferStats Cost(const std::vector<VertexId>& vertices,
                     const FeatureMatrix& features,
                     const FeatureCache* cache) const override;
  std::string name() const override { return "extract-load"; }
  bool extracts() const override { return true; }

 private:
  DeviceModel device_;
};

/// Zero-copy / UVA transfer (Pytorch-Direct, SALIENT): GPU threads read
/// host memory directly, eliminating extraction entirely at the price of
/// fine-grained high-latency PCIe reads.
class ZeroCopyTransfer : public TransferEngine {
 public:
  explicit ZeroCopyTransfer(const DeviceModel& device) : device_(device) {}
  TransferStats Cost(const std::vector<VertexId>& vertices,
                     const FeatureMatrix& features,
                     const FeatureCache* cache) const override;
  std::string name() const override { return "zero-copy"; }
  bool extracts() const override { return false; }

 private:
  DeviceModel device_;
};

/// Hybrid transfer (HyTGraph [51], examined in §7.3.1): splits the feature
/// table into fixed-size blocks; blocks whose active-row ratio exceeds
/// `threshold` are DMA-shipped whole, sparse blocks are read row-by-row
/// via zero-copy. The paper finds this does NOT help GNN training —
/// sampled rows are too fragmented, especially under caching.
class HybridTransfer : public TransferEngine {
 public:
  HybridTransfer(const DeviceModel& device, double threshold,
                 uint64_t block_bytes = 256 * 1024)
      : device_(device), threshold_(threshold), block_bytes_(block_bytes) {}
  TransferStats Cost(const std::vector<VertexId>& vertices,
                     const FeatureMatrix& features,
                     const FeatureCache* cache) const override;
  std::string name() const override { return "hybrid"; }
  bool extracts() const override { return false; }

 private:
  DeviceModel device_;
  double threshold_;
  uint64_t block_bytes_;
};

/// Factory: "extract-load", "zero-copy", or "hybrid".
std::unique_ptr<TransferEngine> MakeTransferEngine(const std::string& name,
                                                   const DeviceModel& device);

}  // namespace gnndm

#endif  // GNNDM_TRANSFER_TRANSFER_ENGINE_H_
