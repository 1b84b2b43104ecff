#include "common/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <thread>

#include "common/annotations.h"
#include "common/telemetry.h"
#include "common/telemetry_names.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace gnndm {

namespace {

/// Set while a thread executes chunks of some parallel loop. A nested
/// ParallelFor on such a thread runs serially: blocking a pool worker on
/// sub-chunks that need pool workers is a deadlock waiting to happen.
thread_local bool tls_in_parallel_region = false;

size_t DefaultThreads() {
  if (const char* env = std::getenv("GNNDM_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return static_cast<size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

// Process-wide pool registry. The pool holds ComputeThreads()-1 workers —
// the calling thread is always the remaining executor — and is created
// lazily on the first parallel loop, then shared by all callers.
// SetComputeThreads swaps the shared_ptr; loops already in flight keep
// their reference, so the old pool drains and joins only after the last
// of them finishes.
Mutex g_mu{"parallel.registry_mu"};
size_t g_threads GNNDM_GUARDED_BY(g_mu) = 0;  // 0 = not yet resolved
std::shared_ptr<ThreadPool> g_pool GNNDM_GUARDED_BY(g_mu);

/// Returns the shared pool (null when running serially) and the resolved
/// thread count.
std::shared_ptr<ThreadPool> AcquirePool(size_t& threads_out)
    GNNDM_EXCLUDES(g_mu) {
  MutexLock lock(g_mu);
  if (g_threads == 0) g_threads = DefaultThreads();
  if (g_threads > 1 && g_pool == nullptr) {
    g_pool = std::make_shared<ThreadPool>(g_threads - 1);
  }
  threads_out = g_threads;
  return g_pool;
}

/// Per-call completion state. Lives on the caller's stack; the caller
/// blocks until every helper task has finished, so references captured by
/// the helpers never dangle. The existing ThreadPool::Wait() waits on a
/// pool-global counter and is useless with concurrent callers — this is
/// the per-call replacement.
struct RunState {
  explicit RunState(size_t helpers) : pending(helpers) {}
  Mutex mu{"parallel.run_mu"};
  CondVar done_cv;
  size_t pending GNNDM_GUARDED_BY(mu);
  std::exception_ptr error GNNDM_GUARDED_BY(mu);
};

/// Executes fn(c) for every c in [0, num_chunks) across the shared pool
/// plus the calling thread. Chunks are claimed dynamically off a shared
/// atomic counter (cheap load balancing for skewed chunks); which thread
/// runs a chunk is nondeterministic, but chunk boundaries are not.
void RunChunks(size_t num_chunks, FunctionRef<void(size_t)> fn) {
  size_t threads = 0;
  std::shared_ptr<ThreadPool> pool = AcquirePool(threads);
  if (pool == nullptr || num_chunks <= 1 || tls_in_parallel_region) {
    if (telemetry::Enabled()) {
      telemetry::GetCounter(telemetry_names::kParallelSerialLoops).Increment();
    }
    for (size_t c = 0; c < num_chunks; ++c) fn(c);
    return;
  }

  std::atomic<size_t> next{0};
  const size_t helpers = std::min(pool->num_threads(), num_chunks - 1);
  RunState state(helpers);

  // Shard-imbalance probe: per-executor drain durations feed a ratio of
  // slowest executor to mean (1.0 = perfectly balanced). Observation only;
  // chunk claiming is unaffected.
  const bool sample_imbalance = telemetry::Enabled();
  telemetry::AtomicDouble drain_sum;
  telemetry::AtomicDouble drain_max;
  if (sample_imbalance) {
    telemetry::GetCounter(telemetry_names::kParallelLoops).Increment();
    telemetry::GetCounter(telemetry_names::kParallelChunks).Add(num_chunks);
  }

  auto drain = [&next, &fn, num_chunks, &state, sample_imbalance, &drain_sum,
                &drain_max] {
    const bool saved = tls_in_parallel_region;
    tls_in_parallel_region = true;
    WallTimer drain_timer;
    for (;;) {
      const size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      try {
        fn(c);
      } catch (...) {
        MutexLock lock(state.mu);
        if (!state.error) state.error = std::current_exception();
        // Skip the chunks nobody has claimed yet: the loop result is
        // already lost, finishing it would only delay the rethrow.
        next.store(num_chunks, std::memory_order_relaxed);
      }
    }
    if (sample_imbalance) {
      const double seconds = drain_timer.Seconds();
      drain_sum.Add(seconds);
      drain_max.Max(seconds);
    }
    tls_in_parallel_region = saved;
  };

  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([&drain, &state] {
      drain();
      MutexLock lock(state.mu);
      if (--state.pending == 0) state.done_cv.NotifyAll();
    });
  }
  drain();  // The caller is an executor too, not just a waiter.

  std::exception_ptr error;
  {
    MutexLock lock(state.mu);
    while (state.pending != 0) state.done_cv.Wait(state.mu);
    error = state.error;
  }
  if (sample_imbalance) {
    const double executors = static_cast<double>(helpers + 1);
    const double mean = drain_sum.Value() / executors;
    if (mean > 0.0) {
      telemetry::GetHistogram(telemetry_names::kParallelImbalance,
                              telemetry::LinearBuckets(1.0, 0.25, 13))
          .Observe(drain_max.Value() / mean);
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace

size_t ComputeThreads() {
  MutexLock lock(g_mu);
  if (g_threads == 0) g_threads = DefaultThreads();
  return g_threads;
}

void SetComputeThreads(size_t num_threads) {
  std::shared_ptr<ThreadPool> retired;
  {
    MutexLock lock(g_mu);
    const size_t resolved = num_threads == 0 ? DefaultThreads() : num_threads;
    if (resolved == g_threads) return;
    g_threads = resolved;
    // Release our reference; a pool of the new size is created lazily.
    // In-flight loops holding the old pool keep it alive until they
    // return, so `retired`'s destructor below joins only idle workers.
    retired = std::move(g_pool);
    g_pool.reset();
  }
}

bool InParallelRegion() { return tls_in_parallel_region; }

void ParallelFor(size_t n, size_t grain,
                 FunctionRef<void(size_t, size_t)> body) {
  if (n == 0) return;
  grain = std::max<size_t>(1, grain);
  if (n <= grain) {
    body(0, n);
    return;
  }
  // A few chunks per executor so dynamic claiming can absorb skew, but
  // never chunks smaller than the grain.
  const size_t max_chunks = ComputeThreads() * 4;
  size_t chunks = std::min((n + grain - 1) / grain, max_chunks);
  const size_t chunk = (n + chunks - 1) / chunks;
  chunks = (n + chunk - 1) / chunk;
  if (chunks <= 1) {
    body(0, n);
    return;
  }
  RunChunks(chunks, [&body, n, chunk](size_t c) {
    const size_t begin = c * chunk;
    body(begin, std::min(n, begin + chunk));
  });
}

void ParallelFor2D(
    size_t rows, size_t cols, size_t row_tile, size_t col_tile,
    FunctionRef<void(size_t, size_t, size_t, size_t)> body) {
  if (rows == 0 || cols == 0) return;
  row_tile = std::max<size_t>(1, std::min(row_tile, rows));
  col_tile = std::max<size_t>(1, std::min(col_tile, cols));
  const size_t row_tiles = (rows + row_tile - 1) / row_tile;
  const size_t col_tiles = (cols + col_tile - 1) / col_tile;
  const size_t tiles = row_tiles * col_tiles;
  if (tiles <= 1) {
    body(0, rows, 0, cols);
    return;
  }
  RunChunks(tiles, [&body, rows, cols, row_tile, col_tile,
                    col_tiles](size_t t) {
    const size_t r0 = (t / col_tiles) * row_tile;
    const size_t c0 = (t % col_tiles) * col_tile;
    body(r0, std::min(rows, r0 + row_tile), c0, std::min(cols, c0 + col_tile));
  });
}

}  // namespace gnndm
