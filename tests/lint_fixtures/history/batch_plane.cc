// Fixture: batch-plane, reduced from Trainer::RunEpoch at
// 11019e8^:src/core/trainer.cc:161. The trainer built its own
// AsyncBatchLoader, a second batch-production path beside the inline
// one; 11019e8 put both behind MakeBatchSource.
#include <cstdint>
#include <utility>
#include <vector>

namespace gnndm {

uint64_t RunEpoch(std::vector<uint32_t> batches, uint64_t seed) {
  AsyncBatchLoader loader(std::move(batches), seed);  // expect: flagged
  uint64_t delivered = 0;
  while (loader.Next()) ++delivered;
  return delivered;
}

}  // namespace gnndm
