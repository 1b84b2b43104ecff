// Fixture: deserialize-validate, reduced from LoadDatasetFile at
// 384f28f^:src/graph/io.cc. The binary loader rebuilt a graph from the
// offsets and adjacency it read without a structural check, so a
// corrupt count reached the CSR; 384f28f runs Validate() on the decoded
// graph before returning it. The finding names the whole file.
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace gnndm {

bool LoadOffsets(const std::string& path, std::vector<uint64_t>& offsets) {
  std::ifstream in(path, std::ios::binary);
  uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  offsets.resize(n);
  in.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>(n * sizeof(uint64_t)));
  return static_cast<bool>(in);
}

}  // namespace gnndm
