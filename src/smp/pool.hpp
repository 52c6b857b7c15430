// Shared-memory parallel kernel layer: a persistent thread pool driving
// chunked range loops and deterministic tree reductions.
//
// This is the intra-node tier of the paper's hybrid model (Sec. III,
// Fig. 7): on each Altix node NSU3D threads its edge-based loops with
// OpenMP while MPI handles the inter-node tier. Here the same role is
// played by a process-wide pool whose thread count comes from the
// COLUMBIA_THREADS environment variable (default: hardware concurrency;
// 1 selects an exact serial path with zero synchronization).
//
// Determinism contract: chunk boundaries depend only on (n, grain), never
// on the thread count, and reduction partials are combined in chunk order
// on the calling thread. Kernels that scatter across indices keep their
// own per-index write order fixed (the NSU3D edge sweeps give every node
// one owning task that visits its edges in ascending order), so every
// solver kernel produces bit-identical results for any thread count.
//
// Wake-up: workers spin on the job generation for kSpinBudget before they
// sleep on a condition variable, and the caller waits for completion the
// same way, so back-to-back jobs hand over without a futex round trip.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/types.hpp"

namespace columbia::smp {

/// Thread count requested by the environment: COLUMBIA_THREADS if set and
/// >= 1, else std::thread::hardware_concurrency().
int env_threads();

class ThreadPool {
 public:
  /// How long an idle worker (or a caller waiting for its job's last
  /// chunk) polls before it blocks. Covers the serial stretches between
  /// the pool jobs of one multigrid cycle; an idle pool sleeps after it.
  static constexpr std::chrono::microseconds kSpinBudget{1000};

  /// Process-wide pool, sized by env_threads() on first use.
  static ThreadPool& global();

  explicit ThreadPool(int num_threads = env_threads());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Re-sizes the pool (joins and respawns workers). Intended for tests
  /// and benchmarks that sweep thread counts; must not be called from
  /// inside a parallel region.
  void resize(int num_threads);

  /// fn(begin, end, tid) over contiguous chunks of [begin, end). `tid` is
  /// the index of the executing thread in [0, num_threads()) — use it to
  /// select per-thread scratch. Chunk boundaries are a pure function of
  /// the range and grain. Serial path: one inline call fn(begin, end, 0).
  using RangeFn = std::function<void(std::size_t, std::size_t, int)>;
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const RangeFn& fn);

  /// Deterministic sum-reduction: `fn(begin, end)` returns the partial for
  /// one chunk; partials are combined in ascending chunk order on the
  /// calling thread, so the result is bit-identical for every thread
  /// count (including 1).
  using ReduceFn = std::function<real_t(std::size_t, std::size_t)>;
  real_t reduce_sum(std::size_t begin, std::size_t end, std::size_t grain,
                    const ReduceFn& fn);

  /// Per-thread utilization counters, recorded only while obs::enabled()
  /// is on (otherwise the pool pays a branch per job). Reset by resize().
  struct ThreadStats {
    std::uint64_t chunks = 0;   // chunks this thread executed
    std::uint64_t busy_ns = 0;  // wall time spent inside chunk bodies
  };
  std::vector<ThreadStats> thread_stats() const;
  void reset_stats();

  /// Copies the per-thread counters into the obs metrics registry as
  /// gauges pool.thread<k>.chunks / pool.thread<k>.busy_ns plus
  /// pool.threads; call before exporting metrics.
  void publish_stats() const;

 private:
  /// The published job. Written by the caller only while no chunk of it
  /// can be claimed (before the generation bump, after the last chunk
  /// completes); read by a worker only while it holds an unfinished chunk.
  struct Job {
    const RangeFn* fn = nullptr;
    std::size_t begin = 0;
    std::size_t grain = 1;
    std::size_t num_chunks = 0;
    std::size_t end = 0;
  };

  void worker_loop(int tid, std::uint32_t seen);
  void run_job(const RangeFn& fn, std::size_t begin, std::size_t end,
               std::size_t grain, std::size_t num_chunks);
  void work_chunks(int tid, std::uint32_t gen);
  void start_workers();
  void stop_workers();

  int num_threads_ = 1;
  std::vector<std::thread> workers_;  // num_threads_ - 1 entries

  /// Cache-line-spaced so per-thread bumps never false-share.
  struct alignas(64) AtomicThreadStats {
    std::atomic<std::uint64_t> chunks{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };
  std::unique_ptr<AtomicThreadStats[]> stats_;  // num_threads_ entries

  Job job_;
  /// (generation << 32) | chunks not yet claimed. One word, so a claim
  /// (compare-exchange decrement) can never take a chunk of a newer job.
  alignas(64) std::atomic<std::uint64_t> ticket_{0};
  alignas(64) std::atomic<std::size_t> chunks_done_{0};
  std::atomic<bool> stopping_{false};
  /// Guards only the sleep paths: publishing a job, the last chunk's
  /// completion, and stopping each touch it so no sleeper misses a wake.
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
};

/// Convenience: resize the global pool (tests / thread-sweep benchmarks).
void set_global_threads(int num_threads);

/// Chunk count used by the pool for a range: ceil((end-begin)/grain).
inline std::size_t num_chunks(std::size_t begin, std::size_t end,
                              std::size_t grain) {
  const std::size_t n = end - begin;
  return grain == 0 ? 1 : (n + grain - 1) / grain;
}

}  // namespace columbia::smp
