#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

}  // namespace
}  // namespace columbia::smp
