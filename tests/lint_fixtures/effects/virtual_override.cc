// Fixture: virtual dispatch edges to every override — an allocation in
// one Derived implementation reaches a hot caller that only ever sees
// Base&, and the chain names the override that allocates.
#include <cstdint>
#include <vector>

namespace gnndm {

class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual void Step(uint32_t v) = 0;
};

class CheapReducer : public Reducer {
 public:
  void Step(uint32_t v) override { sum_ += v; }

 private:
  uint64_t sum_ = 0;
};

class BufferingReducer : public Reducer {
 public:
  void Step(uint32_t v) override {
    std::vector<uint32_t> staged(v + 1);  // expect: flagged via dispatch
    staged[0] = v;
  }
};

// gnndm-hot
void HotReduce(Reducer& r, uint32_t n) {
  for (uint32_t i = 0; i < n; ++i) {
    r.Step(i);  // expect: hot-path-alloc via BufferingReducer::Step
  }
}

}  // namespace gnndm
