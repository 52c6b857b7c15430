#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "smp/pool.hpp"
#include "support/random.hpp"

namespace columbia::smp {
namespace {

TEST(Pool, EnvThreadsAtLeastOne) { EXPECT_GE(env_threads(), 1); }

TEST(Pool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  // Chunks are disjoint, so plain (non-atomic) counters are race-free.
  std::vector<int> hits(10013, 0);
  pool.parallel_for(0, hits.size(), 64,
                    [&](std::size_t b, std::size_t e, int) {
                      for (std::size_t i = b; i < e; ++i) ++hits[i];
                    });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(Pool, SubrangeAndTidBounds) {
  ThreadPool pool(3);
  std::vector<int> hits(5000, 0);
  std::atomic<bool> tid_ok{true};
  pool.parallel_for(1200, 4321, 128,
                    [&](std::size_t b, std::size_t e, int tid) {
                      if (tid < 0 || tid >= 3) tid_ok = false;
                      for (std::size_t i = b; i < e; ++i) ++hits[i];
                    });
  EXPECT_TRUE(tid_ok.load());
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i], (i >= 1200 && i < 4321) ? 1 : 0) << "index " << i;
}

TEST(Pool, ReduceSumBitIdenticalAcrossThreadCounts) {
  std::vector<real_t> v(25003);
  Xoshiro256 rng(42);
  for (real_t& x : v) x = rng.uniform(-1, 1);
  // Back-to-back reductions on one pool: every repetition must agree too,
  // whether the workers are still spinning from the last job or not.
  auto run = [&](int threads) {
    ThreadPool pool(threads);
    const auto sum = [&] {
      return pool.reduce_sum(0, v.size(), 97,
                             [&](std::size_t b, std::size_t e) {
                               real_t s = 0;
                               for (std::size_t i = b; i < e; ++i) s += v[i];
                               return s;
                             });
    };
    const real_t first = sum();
    for (int rep = 0; rep < 200; ++rep) EXPECT_EQ(sum(), first);
    return first;
  };
  const real_t r1 = run(1);
  // Bit-identical, not merely close: chunking is independent of the
  // thread count and partials combine in chunk order.
  EXPECT_EQ(r1, run(2));
  EXPECT_EQ(r1, run(4));
  EXPECT_EQ(r1, run(7));
}

TEST(Pool, NestedParallelForFallsBackToSerial) {
  ThreadPool pool(4);
  std::vector<int> hits(2000, 0);
  pool.parallel_for(0, 2, 1, [&](std::size_t ob, std::size_t oe, int) {
    for (std::size_t o = ob; o < oe; ++o) {
      const std::size_t base = o * 1000;
      pool.parallel_for(base, base + 1000, 64,
                        [&](std::size_t b, std::size_t e, int) {
                          for (std::size_t i = b; i < e; ++i) ++hits[i];
                        });
    }
  });
  for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i], 1);
}

TEST(Pool, ResizeKeepsWorking) {
  ThreadPool pool(1);
  for (int threads : {1, 4, 2, 1}) {
    pool.resize(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    std::vector<int> hits(1000, 0);
    pool.parallel_for(0, hits.size(), 32,
                      [&](std::size_t b, std::size_t e, int) {
                        for (std::size_t i = b; i < e; ++i) ++hits[i];
                      });
    for (int h : hits) ASSERT_EQ(h, 1);
  }
}

TEST(Pool, ManySmallJobsDrainCleanly) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int rep = 0; rep < 200; ++rep)
    pool.parallel_for(0, 64, 4, [&](std::size_t b, std::size_t e, int) {
      total += long(e - b);
    });
  EXPECT_EQ(total.load(), 200 * 64);
}

TEST(Pool, BackToBackTinyJobsCoverEveryChunk) {
  // Workers still spinning from one job pick up the next: no chunk may be
  // lost, run twice, or run under the previous job's function.
  ThreadPool pool(4);
  std::vector<long> hits(4, 0);  // chunk c is one index: race-free
  constexpr int kJobs = 20000;
  for (int rep = 0; rep < kJobs; ++rep)
    pool.parallel_for(0, hits.size(), 1,
                      [&](std::size_t b, std::size_t e, int) {
                        for (std::size_t i = b; i < e; ++i) hits[i] += rep;
                      });
  const long expected = long(kJobs) * (kJobs - 1) / 2;
  for (long h : hits) EXPECT_EQ(h, expected);
}

TEST(Pool, JobAfterIdleGapLongerThanSpinBudget) {
  // Workers that gave up spinning sleep; publishing a job must wake them.
  ThreadPool pool(3);
  for (int rep = 0; rep < 4; ++rep) {
    std::this_thread::sleep_for(4 * ThreadPool::kSpinBudget);
    std::vector<int> hits(3000, 0);
    std::atomic<bool> worker_joined{false};
    pool.parallel_for(0, hits.size(), 16,
                      [&](std::size_t b, std::size_t e, int tid) {
                        if (tid > 0) worker_joined = true;
                        // Whoever runs the first chunk holds it until a
                        // worker has joined (or a generous deadline).
                        const auto deadline = std::chrono::steady_clock::now() +
                                              std::chrono::seconds(10);
                        while (b == 0 && !worker_joined &&
                               std::chrono::steady_clock::now() < deadline)
                          std::this_thread::yield();
                        for (std::size_t i = b; i < e; ++i) ++hits[i];
                      });
    for (int h : hits) ASSERT_EQ(h, 1);
    EXPECT_TRUE(worker_joined.load()) << "no worker woke up for job " << rep;
  }
}

TEST(Pool, ResizeWhileIdle) {
  ThreadPool pool(4);
  for (int threads : {2, 4, 1, 3}) {
    std::this_thread::sleep_for(2 * ThreadPool::kSpinBudget);
    pool.resize(threads);
    ASSERT_EQ(pool.num_threads(), threads);
    std::vector<int> hits(777, 0);
    pool.parallel_for(0, hits.size(), 8,
                      [&](std::size_t b, std::size_t e, int tid) {
                        ASSERT_LT(tid, threads);
                        for (std::size_t i = b; i < e; ++i) ++hits[i];
                      });
    for (int h : hits) ASSERT_EQ(h, 1);
  }
}

TEST(Pool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, 16, [&](std::size_t, std::size_t, int) {
    called = true;
  });
  EXPECT_FALSE(called);
  EXPECT_EQ(pool.reduce_sum(3, 3, 8, [](std::size_t, std::size_t) {
    return real_t(1);
  }), real_t(0));
}

/// Polls `ready` until it holds or `limit` passes; returns whether it held.
template <class Pred>
bool wait_for(Pred&& ready, std::chrono::seconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!ready()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(Pool, TwoPoolsRunJobsConcurrentlyOnTheirOwnWorkers) {
  // Each pool's job has two chunks. The caller's chunk holds until one of
  // the pool's workers has taken the other, and that worker holds until
  // the other pool's worker is running too: both jobs are then in flight
  // at once, each on its own pool's workers. A process-wide busy flag
  // would run the second job inline and strand the first worker.
  ThreadPool pools[2] = {ThreadPool(2), ThreadPool(2)};
  std::atomic<bool> worker_in[2] = {false, false};
  bool overlapped[2] = {false, false};
  std::thread::id worker_id[2];
  auto drive = [&](int k) {
    pools[k].parallel_for(0, 2, 1, [&](std::size_t, std::size_t, int tid) {
      if (tid == 0) {
        wait_for([&] { return worker_in[k].load(); }, std::chrono::seconds(10));
        return;
      }
      worker_id[k] = std::this_thread::get_id();
      worker_in[k] = true;
      overlapped[k] = wait_for([&] { return worker_in[1 - k].load(); },
                               std::chrono::seconds(10));
    });
  };
  std::thread a(drive, 0), b(drive, 1);
  a.join();
  b.join();
  EXPECT_TRUE(overlapped[0]);
  EXPECT_TRUE(overlapped[1]);
  EXPECT_NE(worker_id[0], worker_id[1]);
  EXPECT_NE(worker_id[0], a.get_id());
  EXPECT_NE(worker_id[1], b.get_id());
}

TEST(Pool, CallFromInsideARegionStaysInlineOnAnyPool) {
  ThreadPool outer(4), inner(4);
  std::atomic<int> inner_calls{0}, inline_calls{0};
  outer.parallel_for(0, 4, 1, [&](std::size_t, std::size_t, int) {
    inner.parallel_for(0, 1000, 16, [&](std::size_t b, std::size_t e,
                                        int tid) {
      ++inner_calls;
      if (b == 0 && e == 1000 && tid == 0) ++inline_calls;
    });
    const real_t sum = inner.reduce_sum(
        0, 100, 10, [](std::size_t b, std::size_t e) { return real_t(e - b); });
    EXPECT_EQ(sum, real_t(100));
  });
  // One whole-range inline call per outer chunk, none split across the
  // idle inner pool's workers.
  EXPECT_EQ(inner_calls.load(), 4);
  EXPECT_EQ(inline_calls.load(), 4);
}

TEST(Pool, ScopedPoolBindsTheCallingThreadAndRestores) {
  ThreadPool& process = ThreadPool::global();
  ThreadPool a(2), b(3);
  {
    const ScopedPool bind_a(a);
    EXPECT_EQ(&ThreadPool::global(), &a);
    {
      const ScopedPool bind_b(b);
      EXPECT_EQ(&ThreadPool::global(), &b);
      // The pool's own workers see it as their pool too.
      std::atomic<int> elsewhere{0};
      b.parallel_for(0, 64, 1, [&](std::size_t, std::size_t, int) {
        if (&ThreadPool::global() != &b) ++elsewhere;
      });
      EXPECT_EQ(elsewhere.load(), 0);
    }
    EXPECT_EQ(&ThreadPool::global(), &a);
    // Other threads keep the process-wide pool.
    ThreadPool* seen = nullptr;
    std::thread t([&] { seen = &ThreadPool::global(); });
    t.join();
    EXPECT_EQ(seen, &process);
  }
  EXPECT_EQ(&ThreadPool::global(), &process);
}

}  // namespace
}  // namespace columbia::smp
