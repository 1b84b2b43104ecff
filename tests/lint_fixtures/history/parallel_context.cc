// Fixture: parallel-context, reduced from two findings at b4ed9b4^ that
// b4ed9b4 fixed by resolving instrument handles once, before the loop.
// AsyncBatchSource::WorkerLoop (src/core/batch_source.cc) looked up its
// wait histogram on every batch, and NeighborSampler::Sample
// (src/sampling/neighbor_sampler.cc), which the producer runs per batch,
// looked up four counters on every sample. Each lookup takes the
// registry lock. The worker thread makes this file a raw-thread finding
// too, which AsyncBatchSource's file is allowlisted for.
#include <cstdint>
#include <thread>
#include <vector>

namespace gnndm {

class RegistryLock {
 public:
  void lock() {}
  void unlock() {}
};

RegistryLock g_registry;

struct Counter {
  void Add(uint64_t n) { value += n; }
  uint64_t value = 0;
};

struct Histogram {
  void Observe(double v) { sum += v; }
  double sum = 0.0;
};

Counter g_counter;
Histogram g_histogram;

Counter& GetCounter(const char* name) {
  (void)name;
  g_registry.lock();  // expect: flagged via Sample
  g_registry.unlock();
  return g_counter;
}

Histogram& WaitHistogram(const char* name) {
  (void)name;
  g_registry.lock();  // expect: flagged via the per-batch lookup
  g_registry.unlock();
  return g_histogram;
}

void Sample(uint32_t batch) {
  GetCounter("sampling.subgraphs").Add(1);
  GetCounter("sampling.seeds").Add(batch);
}

class BatchLoader {
 public:
  void Start() {
    workers_.emplace_back([this] { WorkerLoop(); });
  }

 private:
  void WorkerLoop() {
    for (uint32_t i = 0; i < num_batches_; ++i) {
      Sample(i);
      WaitHistogram("loader.producer_wait_seconds").Observe(1.0);
    }
  }

  uint32_t num_batches_ = 8;
  std::vector<std::thread> workers_;  // expect: raw-thread
};

}  // namespace gnndm
