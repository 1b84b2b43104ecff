// Fixture: assert-in-cc, reduced from Table::AddRow at
// 384f28f^:src/common/table.cc:16. The row-width check vanished from
// release builds under -DNDEBUG; 384f28f made it a GNNDM_DCHECK, which
// sanitizer builds keep.
#include <cassert>
#include <string>
#include <utility>
#include <vector>

namespace gnndm {

class Table {
 public:
  void AddRow(std::vector<std::string> row) {
    assert(header_.empty() || row.size() == header_.size());  // expect
    rows_.push_back(std::move(row));
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace gnndm
