#include "smp/shm_transport.hpp"

#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <cstring>
#include <ctime>
#include <thread>

#include "support/assert.hpp"

namespace columbia::smp {

namespace {

constexpr std::size_t kAlign = 64;

std::size_t align_up(std::size_t n) { return (n + kAlign - 1) & ~(kAlign - 1); }

/// Bounded wait for ring space before send() gives up and reports the
/// link down; recv() uses its caller-supplied deadline instead.
constexpr int kSendStallMs = 500;
constexpr auto kPollNap = std::chrono::microseconds(200);

using Clock = std::chrono::steady_clock;

std::uint32_t* futex_word(std::atomic<std::uint32_t>& a) {
  return reinterpret_cast<std::uint32_t*>(&a);
}

/// Sleeps while *word == expected, at most until `until`. Shared futex
/// (no FUTEX_PRIVATE_FLAG): the word lives in a MAP_SHARED mapping that
/// other processes wake through. Spurious returns are fine; the caller
/// re-checks the ring.
void futex_wait(std::atomic<std::uint32_t>& word, std::uint32_t expected,
                Clock::time_point until) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      until - Clock::now())
                      .count();
  if (ns <= 0) return;
  struct timespec ts;
  ts.tv_sec = time_t(ns / 1000000000);
  ts.tv_nsec = long(ns % 1000000000);
  ::syscall(SYS_futex, futex_word(word), FUTEX_WAIT, expected, &ts, nullptr,
            0);
}

void futex_wake_all(std::atomic<std::uint32_t>& word) {
  ::syscall(SYS_futex, futex_word(word), FUTEX_WAKE, INT_MAX, nullptr,
            nullptr, 0);
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

class ShmTransport final : public core::Transport {
 public:
  ShmTransport(ShmGroup* group, int rank) : group_(group), rank_(rank) {}

  core::TransportBackend backend() const override {
    return core::TransportBackend::Shm;
  }
  int group_rank() const override { return rank_; }
  int group_size() const override { return group_->size(); }

  bool send(int to, std::span<const std::uint8_t> datagram) override {
    COLUMBIA_REQUIRE(to >= 0 && to < group_->size());
    const std::uint64_t need = 4 + std::uint64_t(datagram.size());
    const std::uint64_t cap = group_->ring_bytes();
    COLUMBIA_REQUIRE(need <= cap);
    ShmRing& r = group_->ring(rank_, to);
    std::uint8_t* buf = group_->ring_data(rank_, to);
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(kSendStallMs);
    std::uint64_t tail = r.tail.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t head = r.head.load(std::memory_order_acquire);
      if (cap - (tail - head) >= need) break;
      if (std::chrono::steady_clock::now() >= until) return false;
      std::this_thread::sleep_for(kPollNap);
    }
    const std::uint32_t len = std::uint32_t(datagram.size());
    std::uint8_t prefix[4];
    std::memcpy(prefix, &len, 4);
    write_wrapped(buf, cap, tail, prefix, 4);
    write_wrapped(buf, cap, tail + 4, datagram.data(), datagram.size());
    r.tail.store(tail + need, std::memory_order_release);
    // Ring the doorbell after publishing. Sequentially consistent against
    // recv()'s (read doorbell, register waiter, re-check tail) so that
    // either the receiver sees the new tail or this load sees its waiter
    // registration — a wake-up is never lost.
    r.doorbell.fetch_add(1, std::memory_order_seq_cst);
    if (r.waiters.load(std::memory_order_seq_cst) != 0)
      futex_wake_all(r.doorbell);
    return true;
  }

  core::RecvOutcome recv(int from, std::vector<std::uint8_t>& datagram,
                         int deadline_ms) override {
    COLUMBIA_REQUIRE(from >= 0 && from < group_->size());
    ShmRing& r = group_->ring(from, rank_);
    const std::uint8_t* buf = group_->ring_data(from, rank_);
    const std::uint64_t cap = group_->ring_bytes();
    const auto until = Clock::now() + std::chrono::milliseconds(deadline_ms);
    // We are the ring's only consumer: head moves only here.
    const std::uint64_t head = r.head.load(std::memory_order_relaxed);
    const auto readable = [&] {
      return r.tail.load(std::memory_order_acquire) - head >= 4;
    };
    for (int i = 0; !readable() && i < kRecvSpinChecks; ++i) cpu_relax();
    while (!readable()) {
      if (Clock::now() >= until) return core::RecvOutcome::Timeout;
      const std::uint32_t bell = r.doorbell.load(std::memory_order_seq_cst);
      r.waiters.fetch_add(1, std::memory_order_seq_cst);
      // A datagram published before `bell` was read is visible to this
      // re-check; one published after it changes the doorbell, so the
      // futex returns at once instead of sleeping.
      if (!readable()) futex_wait(r.doorbell, bell, until);
      r.waiters.fetch_sub(1, std::memory_order_seq_cst);
    }
    // The producer publishes tail once per whole datagram, so any
    // readable length prefix is followed by its complete body.
    const std::uint64_t tail = r.tail.load(std::memory_order_acquire);
    std::uint8_t prefix[4];
    read_wrapped(buf, cap, head, prefix, 4);
    std::uint32_t len;
    std::memcpy(&len, prefix, 4);
    COLUMBIA_REQUIRE(tail - head >= 4 + std::uint64_t(len));
    datagram.resize(len);
    read_wrapped(buf, cap, head + 4, datagram.data(), len);
    r.head.store(head + 4 + len, std::memory_order_release);
    return core::RecvOutcome::Ok;
  }

  /// A reset loses in-flight data: discard everything queued toward this
  /// member (we are that ring's consumer, so advancing head is safe).
  void inject_reset(int peer) override {
    ShmRing& r = group_->ring(peer, rank_);
    r.head.store(r.tail.load(std::memory_order_acquire),
                 std::memory_order_release);
  }

 private:
  static void write_wrapped(std::uint8_t* buf, std::uint64_t cap,
                            std::uint64_t pos, const std::uint8_t* src,
                            std::size_t n) {
    const std::uint64_t at = pos % cap;
    const std::size_t first = std::size_t(std::min<std::uint64_t>(n, cap - at));
    std::memcpy(buf + at, src, first);
    if (first < n) std::memcpy(buf, src + first, n - first);
  }
  static void read_wrapped(const std::uint8_t* buf, std::uint64_t cap,
                           std::uint64_t pos, std::uint8_t* dst,
                           std::size_t n) {
    const std::uint64_t at = pos % cap;
    const std::size_t first = std::size_t(std::min<std::uint64_t>(n, cap - at));
    std::memcpy(dst, buf + at, first);
    if (first < n) std::memcpy(dst + first, buf, n - first);
  }

  ShmGroup* group_;
  int rank_;
};

}  // namespace

ShmGroup::ShmGroup(int size, ShmGroupOptions options)
    : size_(size), opt_(options) {
  COLUMBIA_REQUIRE(size >= 1);
  COLUMBIA_REQUIRE(opt_.ring_bytes >= 4096);
  stride_ = align_up(sizeof(ShmRing)) + align_up(opt_.ring_bytes);
  map_bytes_ = stride_ * std::size_t(size) * std::size_t(size);
  map_ = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  COLUMBIA_REQUIRE(map_ != MAP_FAILED);
  for (int f = 0; f < size; ++f)
    for (int t = 0; t < size; ++t) {
      ShmRing* r = new (static_cast<std::uint8_t*>(map_) +
                        stride_ * (std::size_t(f) * std::size_t(size) +
                                   std::size_t(t))) ShmRing;
      r->head.store(0, std::memory_order_relaxed);
      r->tail.store(0, std::memory_order_relaxed);
      r->doorbell.store(0, std::memory_order_relaxed);
      r->waiters.store(0, std::memory_order_relaxed);
    }
}

ShmGroup::~ShmGroup() {
  if (map_ != nullptr && map_ != MAP_FAILED) ::munmap(map_, map_bytes_);
}

ShmRing& ShmGroup::ring(int from, int to) {
  return *reinterpret_cast<ShmRing*>(
      static_cast<std::uint8_t*>(map_) +
      stride_ * (std::size_t(from) * std::size_t(size_) + std::size_t(to)));
}

std::uint8_t* ShmGroup::ring_data(int from, int to) {
  return static_cast<std::uint8_t*>(map_) +
         stride_ * (std::size_t(from) * std::size_t(size_) + std::size_t(to)) +
         align_up(sizeof(ShmRing));
}

std::unique_ptr<core::Transport> ShmGroup::endpoint(int rank) {
  COLUMBIA_REQUIRE(rank >= 0 && rank < size_);
  return std::make_unique<ShmTransport>(this, rank);
}

}  // namespace columbia::smp
