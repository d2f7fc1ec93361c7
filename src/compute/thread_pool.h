#ifndef SLIME4REC_COMPUTE_THREAD_POOL_H_
#define SLIME4REC_COMPUTE_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace slime {

namespace obs {
class MetricsRegistry;
}  // namespace obs

namespace compute {

/// A fixed-size pool of worker threads executing chunked loops. The caller
/// thread always participates, so a pool configured for T threads uses T-1
/// workers; `threads == 1` means fully inline execution with no pool at all.
///
/// Scheduling is dynamic (workers pull chunk indices from an atomic
/// counter), but **work decomposition is static**: callers split a loop into
/// a chunk list that depends only on the problem size and grain, never on
/// the thread count. Each chunk writes disjoint outputs (or produces an
/// index-addressed partial), so results are bit-identical for every thread
/// count — which thread runs a chunk cannot matter.
class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller is the remaining thread).
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs `chunk_fn(c)` for every c in [0, num_chunks) across the workers
  /// and the calling thread; returns when all chunks completed. Must not be
  /// called from inside a pool worker (use InParallelRegion() to detect).
  void Run(int64_t num_chunks, const std::function<void(int64_t)>& chunk_fn);

 private:
  /// Per-invocation shared state. Workers hold a shared_ptr so a slow
  /// worker draining the tail of job N can never touch job N+1's counters.
  struct Job {
    const std::function<void(int64_t)>* fn = nullptr;
    int64_t total = 0;
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> done{0};
  };

  void WorkerMain();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::shared_ptr<Job> job_;   // guarded by mu_
  uint64_t job_generation_ = 0;  // guarded by mu_
  bool shutdown_ = false;        // guarded by mu_
};

/// True while executing inside a pool worker; nested parallel constructs
/// detect this and degrade to inline serial execution.
bool InParallelRegion();

/// max(1, std::thread::hardware_concurrency()).
int HardwareThreads();

/// Largest accepted configured thread count. Far above any sensible CPU
/// fan-out; the cap exists so a typo ("10000000") fails with a clear error
/// instead of exhausting the machine spawning threads.
inline constexpr int kMaxThreadCount = 512;

/// Strictly parses a thread-count string from untrusted configuration (the
/// --threads flag, the SLIME_NUM_THREADS environment variable): an integer
/// in [1, kMaxThreadCount], no trailing junk. Empty, non-numeric, zero,
/// negative and absurdly large inputs all return InvalidArgument with the
/// offending text in the message.
Result<int> ParseThreadCount(const std::string& text);

/// The currently configured thread count. Initialised on first use from
/// the SLIME_NUM_THREADS environment variable when it parses cleanly (see
/// ParseThreadCount; an invalid value is reported on stderr and ignored),
/// else from HardwareThreads().
int NumThreads();

/// Reconfigures the global pool. `threads <= 0` selects HardwareThreads();
/// positive values must be <= kMaxThreadCount (checked). Not thread-safe
/// against concurrently running kernels; call between parallel regions
/// (startup, test setup, CLI flag handling).
void SetNumThreads(int threads);

/// RAII thread-count override for embedders: saves the current setting,
/// applies `threads`, restores on destruction.
class ComputeContext {
 public:
  explicit ComputeContext(int threads);
  ~ComputeContext();
  ComputeContext(const ComputeContext&) = delete;
  ComputeContext& operator=(const ComputeContext&) = delete;

 private:
  int saved_;
};

/// Deterministic blocked loop over [begin, end): the range is split into
/// ceil(range / grain) chunks of `grain` consecutive indices (the last chunk
/// may be short) and `body(lo, hi)` runs once per chunk. Chunk boundaries
/// depend only on the range and grain — never on the thread count — and each
/// body invocation is the exact serial loop it would be single-threaded, so
/// disjoint per-index writes are bit-identical for every thread count.
/// Runs inline when the pool is size 1, the range fits one chunk, or the
/// caller is already inside a parallel region.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t lo, int64_t hi)>& body);

/// ParallelFor over `items` stacked items of `rows` rows each: the flattened
/// item x row range [0, items * rows) is chunked as ParallelFor chunks it,
/// so one big item still splits, and a chunk crossing an item boundary calls
/// `body(item, lo, hi)` once per item it touches, [lo, hi) being rows of
/// that item.
template <typename Body>
void ParallelForItemRows(int64_t items, int64_t rows, int64_t grain,
                         const Body& body) {
  ParallelFor(0, items * rows, grain, [&](int64_t lo, int64_t hi) {
    while (lo < hi) {
      const int64_t item = lo / rows;
      const int64_t row0 = lo - item * rows;
      const int64_t span = std::min(hi - lo, rows - row0);
      body(item, row0, row0 + span);
      lo += span;
    }
  });
}

/// Deterministic sum reduction: per-chunk partials (same fixed chunking as
/// ParallelFor) are combined **in chunk index order** on the calling thread,
/// so the result is bit-identical for every thread count.
double ParallelSum(int64_t begin, int64_t end, int64_t grain,
                   const std::function<double(int64_t lo, int64_t hi)>&
                       chunk_sum);

/// Deterministic conjunction: true iff every chunk predicate is true
/// (logical AND is order-independent, chunking matches ParallelFor).
bool ParallelAll(int64_t begin, int64_t end, int64_t grain,
                 const std::function<bool(int64_t lo, int64_t hi)>&
                     chunk_all);

/// Default grain sizes (elements per chunk). Chosen so chunk setup overhead
/// stays well under 1% of chunk work on scalar CPU code.
inline constexpr int64_t kElementwiseGrain = 1 << 14;
inline constexpr int64_t kReductionGrain = 1 << 15;

/// Rows (or other outer units) per chunk for a loop whose per-unit cost is
/// `work_per_unit` scalar flops: targets ~32K flops per chunk. Depends only
/// on the workload shape, keeping the decomposition deterministic.
int64_t GrainForWork(int64_t work_per_unit);

/// Points the compute layer's instrumentation at `registry` (counters
/// "compute.regions" / "compute.inline_regions" / "compute.chunks" and the
/// "compute.region_nanos" histogram of per-region wall time). nullptr (the
/// default) detaches all handles — the hot path then pays one predictable
/// branch per region. Region wall times come from the steady clock, so
/// they are NOT deterministic; never fold them into determinism
/// signatures (the counters are fine — chunk decomposition is fixed).
/// Like SetNumThreads, not thread-safe against running kernels; call
/// between parallel regions.
void SetMetricsRegistry(obs::MetricsRegistry* registry);

}  // namespace compute
}  // namespace slime

#endif  // SLIME4REC_COMPUTE_THREAD_POOL_H_
