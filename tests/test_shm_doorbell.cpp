// Shared-memory ring doorbell: recv() sleeps on a futex word instead of
// polling, so these tests pin down its three promises — a receive with no
// sender returns Timeout at its deadline, a datagram published from
// another process wakes a blocked receiver, and the byte ring itself
// still round-trips every datagram bit for bit across wrap-around.
//
// Labelled tsan: the two-thread ping-pong is the ThreadSanitizer target
// for the doorbell/waiter protocol. The fork test forks before any thread
// exists in the process.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "smp/shm_transport.hpp"
#include "support/random.hpp"

namespace columbia {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

TEST(ShmDoorbell, RecvWithoutSenderTimesOutAtDeadline) {
  smp::ShmGroup group(2);
  auto rx = group.endpoint(1);
  std::vector<std::uint8_t> got;
  for (const int deadline : {0, 1, 40}) {
    const auto t0 = Clock::now();
    EXPECT_EQ(rx->recv(0, got, deadline), core::RecvOutcome::Timeout);
    EXPECT_GE(elapsed_ms(t0), double(deadline)) << "deadline " << deadline;
  }
}

TEST(ShmDoorbell, ForkedSenderWakesBlockedReceiver) {
  smp::ShmGroup group(2);
  const std::vector<std::uint8_t> msg = pattern(777, 5);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Let the parent reach its futex wait first, then publish.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    auto tx = group.endpoint(1);
    ::_exit(tx->send(0, msg) ? 0 : 1);
  }
  auto rx = group.endpoint(0);
  std::vector<std::uint8_t> got;
  constexpr int kDeadlineMs = 20000;
  const auto t0 = Clock::now();
  const core::RecvOutcome ro = rx->recv(1, got, kDeadlineMs);
  const double waited = elapsed_ms(t0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_EQ(ro, core::RecvOutcome::Ok);
  EXPECT_EQ(got, msg);
  // Woken by the child's doorbell, not by running out the deadline.
  EXPECT_LT(waited, kDeadlineMs / 2);
}

TEST(ShmDoorbell, WrapAroundRoundTripsBitwise) {
  // A minimum-size ring and datagrams of awkward lengths: the length
  // prefix and the body both straddle the end of the buffer many times.
  smp::ShmGroupOptions opt;
  opt.ring_bytes = 4096;
  smp::ShmGroup group(2, opt);
  auto tx = group.endpoint(0);
  auto rx = group.endpoint(1);
  Xoshiro256 rng(11);
  std::uint64_t moved = 0;
  std::vector<std::uint8_t> got;
  for (int i = 0; i < 300; ++i) {
    // Up to three datagrams in flight at once, 1..1500 bytes each.
    const int burst = 1 + int(rng.below(3));
    std::vector<std::vector<std::uint8_t>> sent;
    for (int k = 0; k < burst; ++k) {
      sent.push_back(pattern(1 + std::size_t(rng.below(1500)),
                             std::uint64_t(i * 4 + k)));
      ASSERT_TRUE(tx->send(1, sent.back()));
      moved += sent.back().size() + 4;
    }
    for (const auto& m : sent) {
      ASSERT_EQ(rx->recv(0, got, 1000), core::RecvOutcome::Ok);
      ASSERT_EQ(got, m) << "datagram " << i;
    }
  }
  EXPECT_GT(moved, 50u * opt.ring_bytes);  // wrapped many times over
  EXPECT_EQ(rx->recv(0, got, 0), core::RecvOutcome::Timeout);
}

TEST(ShmDoorbell, ThreadPingPongWakesBothSides) {
  // Two members on two threads bounce a counter: every receive on either
  // side blocks until the other side's send rings its doorbell.
  smp::ShmGroup group(2);
  constexpr int kRounds = 500;
  std::thread peer([&] {
    auto ep = group.endpoint(1);
    std::vector<std::uint8_t> buf;
    for (int i = 0; i < kRounds; ++i) {
      if (ep->recv(0, buf, 10000) != core::RecvOutcome::Ok) return;
      buf[0] = std::uint8_t(buf[0] + 1);
      ep->send(0, buf);
    }
  });
  auto ep = group.endpoint(0);
  std::vector<std::uint8_t> buf{0, 42};
  int ok = 0;
  for (int i = 0; i < kRounds; ++i) {
    const std::uint8_t next = std::uint8_t(buf[0] + 1);
    ASSERT_TRUE(ep->send(1, buf));
    if (ep->recv(1, buf, 10000) != core::RecvOutcome::Ok) break;
    if (buf[0] == next && buf[1] == 42) ++ok;
    buf[0] = next;
  }
  peer.join();
  EXPECT_EQ(ok, kRounds);
}

}  // namespace
}  // namespace columbia
