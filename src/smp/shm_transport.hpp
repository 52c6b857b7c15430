// POSIX shared-memory transport between forked OS processes.
//
// A ShmGroup owns one anonymous MAP_SHARED mapping holding an SPSC byte
// ring per directed member pair. The parent creates the group BEFORE
// forking; every child inherits the mapping and drives its endpoint
// (ShmGroup::endpoint) against the rings. Datagrams travel length-prefixed
// ([u32 length][bytes]); the producer publishes the tail index with
// release ordering only after the whole datagram is written, so a consumer
// that observes the tail sees complete messages — the ring never delivers
// a torn datagram (the frame checksum above would catch one anyway).
//
// Waiting is event-driven: every ring carries a doorbell word that send()
// bumps after publishing the tail. recv() spins for a short fixed budget
// (kRecvSpinChecks), then sleeps on the doorbell with FUTEX_WAIT until the
// caller's deadline; send() issues FUTEX_WAKE only when a receiver has
// registered as waiting, so the uncontended path makes no system call. The
// futex is the shared (not process-private) kind: the ring lives in a
// MAP_SHARED mapping inherited across fork, and the kernel keys shared
// futexes by the backing page, so a child's wake reaches the parent's
// waiter.
//
// Failure semantics: send() reports false when the ring stays full past a
// bounded wait (the peer stopped draining); recv() waits until the
// deadline; inject_reset drops everything in flight toward this member,
// which is what a real link reset does to unacknowledged data.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/transport.hpp"

namespace columbia::smp {

struct ShmGroupOptions {
  /// Per-directed-pair ring capacity in bytes. Must exceed the largest
  /// datagram (wire header + framed payload) by at least the length
  /// prefix.
  std::size_t ring_bytes = std::size_t(1) << 20;
};

/// One SPSC ring: head is the consumer cursor, tail the producer cursor
/// (both monotone; the ring holds tail - head live bytes). Lives inside
/// the shared mapping, so members must be trivially layout-stable.
/// `doorbell` is the futex word the producer bumps once per datagram;
/// `waiters` counts consumers parked (or about to park) on it.
struct ShmRing {
  alignas(64) std::atomic<std::uint64_t> head;
  alignas(64) std::atomic<std::uint64_t> tail;
  alignas(64) std::atomic<std::uint32_t> doorbell;
  std::atomic<std::uint32_t> waiters;
};
static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "the doorbell must be a plain 32-bit futex word");

/// Re-checks of the tail recv() makes before sleeping on the doorbell: an
/// answer that is already on its way (a peer's Ack, a frame just being
/// written) costs a few microseconds of spinning instead of two context
/// switches.
inline constexpr int kRecvSpinChecks = 256;

/// The shared fabric. Construct in the parent BEFORE forking; endpoints
/// work from the parent (loopback harness) or any forked child. The group
/// must outlive every endpoint using it (in a child, for the child's
/// lifetime — the mapping is released by _exit).
class ShmGroup {
 public:
  explicit ShmGroup(int size, ShmGroupOptions options = {});
  ~ShmGroup();
  ShmGroup(const ShmGroup&) = delete;
  ShmGroup& operator=(const ShmGroup&) = delete;

  int size() const { return size_; }
  std::size_t ring_bytes() const { return opt_.ring_bytes; }

  std::unique_ptr<core::Transport> endpoint(int rank);

  ShmRing& ring(int from, int to);
  std::uint8_t* ring_data(int from, int to);

 private:
  int size_;
  ShmGroupOptions opt_;
  std::size_t stride_ = 0;  // bytes per (ring header + buffer), 64-aligned
  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
};

}  // namespace columbia::smp
