#include "smp/pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>

#include "obs/obs.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace columbia::smp {

namespace {

constexpr std::uint64_t kChunkMask = 0xffffffffu;

std::uint32_t generation_of(std::uint64_t ticket) {
  return std::uint32_t(ticket >> 32);
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Polls `ready` for up to ThreadPool::kSpinBudget, yielding the core now
/// and then; returns whether it became true.
template <class Pred>
bool spin_until(Pred&& ready) {
  const auto deadline =
      std::chrono::steady_clock::now() + ThreadPool::kSpinBudget;
  for (unsigned i = 1;; ++i) {
    if (ready()) return true;
    cpu_relax();
    if (i % 64 == 0) {
      if (std::chrono::steady_clock::now() >= deadline) return ready();
      std::this_thread::yield();
    }
  }
}

}  // namespace

int env_threads() {
  if (const char* s = std::getenv("COLUMBIA_THREADS")) {
    const int n = std::atoi(s);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? int(hw) : 1;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void set_global_threads(int num_threads) {
  ThreadPool::global().resize(num_threads);
}

ThreadPool::ThreadPool(int num_threads) {
  COLUMBIA_REQUIRE(num_threads >= 1);
  num_threads_ = num_threads;
  stats_ = std::make_unique<AtomicThreadStats[]>(std::size_t(num_threads_));
  start_workers();
}

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::start_workers() {
  const std::uint32_t gen = generation_of(ticket_.load());
  workers_.reserve(std::size_t(num_threads_) - 1);
  for (int t = 1; t < num_threads_; ++t)
    workers_.emplace_back([this, t, gen] { worker_loop(t, gen); });
}

void ThreadPool::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_.store(true);
  }
  start_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  stopping_.store(false);
}

void ThreadPool::resize(int num_threads) {
  COLUMBIA_REQUIRE(num_threads >= 1);
  if (num_threads == num_threads_) return;
  stop_workers();
  num_threads_ = num_threads;
  stats_ = std::make_unique<AtomicThreadStats[]>(std::size_t(num_threads_));
  start_workers();
}

std::vector<ThreadPool::ThreadStats> ThreadPool::thread_stats() const {
  std::vector<ThreadStats> out(static_cast<std::size_t>(num_threads_));
  for (int t = 0; t < num_threads_; ++t) {
    out[std::size_t(t)].chunks = stats_[t].chunks.load(std::memory_order_relaxed);
    out[std::size_t(t)].busy_ns =
        stats_[t].busy_ns.load(std::memory_order_relaxed);
  }
  return out;
}

void ThreadPool::reset_stats() {
  for (int t = 0; t < num_threads_; ++t) {
    stats_[t].chunks.store(0, std::memory_order_relaxed);
    stats_[t].busy_ns.store(0, std::memory_order_relaxed);
  }
}

void ThreadPool::publish_stats() const {
  if (!obs::enabled()) return;
  obs::gauge("pool.threads").set(std::uint64_t(num_threads_));
  const std::vector<ThreadStats> snap = thread_stats();
  for (int t = 0; t < num_threads_; ++t) {
    const std::string prefix = "pool.thread" + std::to_string(t);
    obs::gauge(prefix + ".chunks").set(snap[std::size_t(t)].chunks);
    obs::gauge(prefix + ".busy_ns").set(snap[std::size_t(t)].busy_ns);
  }
}

void ThreadPool::worker_loop(int tid, std::uint32_t seen) {
  const auto published = [&] {
    return stopping_.load(std::memory_order_acquire) ||
           generation_of(ticket_.load(std::memory_order_acquire)) != seen;
  };
  while (true) {
    if (!spin_until(published)) {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, published);
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    seen = generation_of(ticket_.load(std::memory_order_acquire));
    work_chunks(tid, seen);
  }
}

void ThreadPool::work_chunks(int tid, std::uint32_t gen) {
  // Utilization accounting is gated on the runtime obs flag so the
  // tracing-off path costs one relaxed load per job.
  const bool timed = obs::enabled();
  std::uint64_t t = ticket_.load(std::memory_order_acquire);
  while (generation_of(t) == gen && (t & kChunkMask) != 0) {
    if (!ticket_.compare_exchange_weak(t, t - 1, std::memory_order_acq_rel,
                                       std::memory_order_acquire))
      continue;
    // This chunk is ours and unfinished, so job_ is stable until we
    // report it done; copy what we need first.
    const std::size_t chunks = job_.num_chunks;
    const std::size_t c = chunks - std::size_t(t & kChunkMask);
    const RangeFn& fn = *job_.fn;
    const std::size_t b = job_.begin + c * job_.grain;
    const std::size_t e = std::min(job_.end, b + job_.grain);
    if (timed) {
      const std::uint64_t t0 = WallTimer::now_ns();
      fn(b, e, tid);
      stats_[tid].busy_ns.fetch_add(WallTimer::now_ns() - t0,
                                    std::memory_order_relaxed);
      stats_[tid].chunks.fetch_add(1, std::memory_order_relaxed);
    } else {
      fn(b, e, tid);
    }
    if (chunks_done_.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks &&
        tid != 0) {
      // The caller may be asleep in run_job; taking the lock orders this
      // notify after its predicate check.
      { std::lock_guard<std::mutex> lock(mu_); }
      done_cv_.notify_one();
    }
    t = ticket_.load(std::memory_order_acquire);
  }
}

void ThreadPool::run_job(const RangeFn& fn, std::size_t begin, std::size_t end,
                         std::size_t grain, std::size_t chunks) {
  OBS_COUNT("pool.jobs", 1);
  COLUMBIA_REQUIRE(chunks <= kChunkMask);
  job_ = Job{&fn, begin, grain, chunks, end};
  chunks_done_.store(0, std::memory_order_relaxed);
  std::uint32_t gen = 0;
  {
    // Under the lock, so a worker between its predicate check and its
    // wait cannot miss the bump.
    std::lock_guard<std::mutex> lock(mu_);
    gen = generation_of(ticket_.load(std::memory_order_relaxed)) + 1;
    ticket_.store((std::uint64_t(gen) << 32) | chunks,
                  std::memory_order_release);
  }
  start_cv_.notify_all();
  work_chunks(0, gen);  // the caller participates
  const auto done = [&] {
    return chunks_done_.load(std::memory_order_acquire) == chunks;
  };
  if (!spin_until(done)) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, done);
  }
}

namespace {
/// One job at a time; nested or concurrent parallel regions fall back to
/// the inline serial path (well-defined from any thread, unlike a
/// recursive try_lock).
std::atomic_flag g_busy = ATOMIC_FLAG_INIT;
}  // namespace

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              std::size_t grain, const RangeFn& fn) {
  if (end <= begin) return;
  grain = std::max<std::size_t>(1, grain);
  if (num_threads_ == 1 || end - begin <= grain) {
    fn(begin, end, 0);
    return;
  }
  if (g_busy.test_and_set(std::memory_order_acquire)) {
    fn(begin, end, 0);
    return;
  }
  run_job(fn, begin, end, grain, num_chunks(begin, end, grain));
  g_busy.clear(std::memory_order_release);
}

real_t ThreadPool::reduce_sum(std::size_t begin, std::size_t end,
                              std::size_t grain, const ReduceFn& fn) {
  if (end <= begin) return 0;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t chunks = num_chunks(begin, end, grain);
  std::vector<real_t> partial(chunks, 0.0);
  // Identical chunking on every path keeps the combine order — and thus
  // the rounding — independent of the thread count.
  const bool serial = num_threads_ == 1 || chunks == 1 ||
                      g_busy.test_and_set(std::memory_order_acquire);
  if (serial) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t b = begin + c * grain;
      partial[c] = fn(b, std::min(end, b + grain));
    }
  } else {
    const RangeFn chunked = [&](std::size_t b, std::size_t e, int) {
      partial[(b - begin) / grain] = fn(b, e);
    };
    run_job(chunked, begin, end, grain, chunks);
    g_busy.clear(std::memory_order_release);
  }
  real_t sum = 0;
  for (std::size_t c = 0; c < chunks; ++c) sum += partial[c];
  return sum;
}

}  // namespace columbia::smp
