// Shared-memory parallel kernel layer: persistent thread pools driving
// chunked range loops and deterministic tree reductions.
//
// This is the intra-node tier of the paper's hybrid model (Sec. III,
// Fig. 7): on each Altix node NSU3D threads its edge-based loops with
// OpenMP while MPI handles the inter-node tier. Here the same role is
// played by a process-wide pool whose thread count comes from the
// COLUMBIA_THREADS environment variable (default: hardware concurrency;
// 1 selects an exact serial path with zero synchronization). A thread may
// bind its own pool (ScopedPool) — the database fill runs each case on
// one — and every kernel reaches the calling thread's pool through
// ThreadPool::global().
//
// Determinism contract: chunk boundaries depend only on (n, grain), never
// on the thread count, and reduction partials are combined in chunk order
// on the calling thread. Kernels that scatter across indices keep their
// own per-index write order fixed (the edge and face sweeps give every
// vertex one owning task that visits its edges in ascending order; see
// smp/owners.hpp), so every solver kernel produces bit-identical results
// for any thread count.
//
// One job at a time per pool: a call that finds its pool busy (another
// thread's job in flight) or that is made from inside a parallel region
// (a chunk body, on any pool) runs inline on the calling thread. Two
// pools run their jobs concurrently.
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
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/types.hpp"

namespace columbia::smp {

/// Thread count requested by the environment: COLUMBIA_THREADS if set and
/// >= 1, else std::thread::hardware_concurrency().
int env_threads();

/// Non-owning reference to a callable, so handing a kernel lambda to the
/// pool never allocates (std::function heap-allocates captures larger than
/// two pointers). The referenced callable must outlive the call.
template <class Sig>
class FunctionRef;

template <class R, class... Args>
class FunctionRef<R(Args...)> {
 public:
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f) noexcept  // implicit, like std::function
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* o, Args... a) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(o))(
              std::forward<Args>(a)...);
        }) {}

  R operator()(Args... a) const {
    return call_(obj_, std::forward<Args>(a)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

class ThreadPool {
 public:
  /// How long an idle worker (or a caller waiting for its job's last
  /// chunk) polls before it blocks. Covers the serial stretches between
  /// the pool jobs of one multigrid cycle; an idle pool sleeps after it.
  static constexpr std::chrono::microseconds kSpinBudget{1000};

  /// The calling thread's pool: the one bound by the innermost live
  /// ScopedPool on this thread (a pool's own workers are bound to it),
  /// else the process-wide pool, sized by env_threads() on first use.
  static ThreadPool& global();

  explicit ThreadPool(int num_threads = env_threads());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Re-sizes the pool (joins and respawns workers). For tests and
  /// benchmarks that sweep thread counts, and for the database fill's
  /// lending between cycles; must not be called while a job of this pool
  /// is in flight.
  void resize(int num_threads);

  /// fn(begin, end, tid) over contiguous chunks of [begin, end). `tid` is
  /// the index of the executing thread in [0, num_threads()) — use it to
  /// select per-thread scratch. Chunk boundaries are a pure function of
  /// the range and grain. Serial path: one inline call fn(begin, end, 0).
  using RangeFn = FunctionRef<void(std::size_t, std::size_t, int)>;
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const RangeFn& fn);

  /// Deterministic sum-reduction: `fn(begin, end)` returns the partial for
  /// one chunk; partials are combined in ascending chunk order on the
  /// calling thread, so the result is bit-identical for every thread
  /// count (including 1).
  using ReduceFn = FunctionRef<real_t(std::size_t, std::size_t)>;
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
  /// Set while a job of this pool is in flight; a second caller that
  /// finds it set runs its range inline.
  std::atomic_flag busy_ = ATOMIC_FLAG_INIT;
  /// Reduction partials, one per chunk; capacity persists across calls.
  /// Touched only by the caller holding busy_.
  std::vector<real_t> partial_;
  /// Guards only the sleep paths: publishing a job, the last chunk's
  /// completion, and stopping each touch it so no sleeper misses a wake.
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
};

/// Binds `pool` as ThreadPool::global() for the calling thread for this
/// object's lifetime; the destructor restores the previous binding.
class ScopedPool {
 public:
  explicit ScopedPool(ThreadPool& pool);
  ~ScopedPool();
  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

 private:
  ThreadPool* previous_;
};

/// Convenience: resize the calling thread's pool, ThreadPool::global()
/// (tests / thread-sweep benchmarks).
void set_global_threads(int num_threads);

/// Chunk count used by the pool for a range: ceil((end-begin)/grain).
inline std::size_t num_chunks(std::size_t begin, std::size_t end,
                              std::size_t grain) {
  const std::size_t n = end - begin;
  return grain == 0 ? 1 : (n + grain - 1) / grain;
}

}  // namespace columbia::smp
