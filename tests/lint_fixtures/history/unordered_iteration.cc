// Fixture: unordered-iteration, reduced from HybridTransfer::Cost at
// 877e4cb^:src/transfer/transfer_engine.cc:108. The per-block transfer
// cost was summed in the hash map's bucket order, so the double total
// could change with the standard library; 877e4cb counts sorted block
// ids instead. A membership test with find() stays legal.
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace gnndm {

double BlockCostSeconds(const std::vector<uint64_t>& rows,
                        uint64_t rows_per_block) {
  std::unordered_map<uint64_t, uint64_t> block_active;
  for (uint64_t v : rows) ++block_active[v / rows_per_block];
  double seconds = 0.0;
  for (const auto& [block, active] : block_active) {  // expect: flagged
    (void)block;
    seconds += static_cast<double>(active) * 1e-6;
  }
  return seconds;
}

bool HasBlock(const std::unordered_map<uint64_t, uint64_t>& blocks,
              uint64_t b) {
  return blocks.find(b) != blocks.end();  // expect: clean
}

}  // namespace gnndm
