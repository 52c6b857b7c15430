#include "core/transport.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "core/clock_sync.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace columbia::core {

const char* transport_backend_name(TransportBackend b) {
  switch (b) {
    case TransportBackend::Local: return "local";
    case TransportBackend::Shm: return "shm";
    case TransportBackend::Tcp: return "tcp";
  }
  return "?";
}

const char* transport_counter_name(TransportCounter c) {
  switch (c) {
    case TransportCounter::Timeout: return "timeout";
    case TransportCounter::Retransmit: return "retransmit";
    case TransportCounter::Reconnect: return "reconnect";
    case TransportCounter::PeerLost: return "peer_lost";
    case TransportCounter::Heartbeat: return "heartbeat";
    case TransportCounter::ExitFallback: return "exit_fallback";
  }
  return "?";
}

void Transport::count(TransportCounter c, std::uint64_t n) {
  counters_.v[std::size_t(c)] += n;
  switch (c) {
    case TransportCounter::Timeout: OBS_COUNT("resil.transport.timeout", n); break;
    case TransportCounter::Retransmit:
      OBS_COUNT("resil.transport.retransmit", n);
      break;
    case TransportCounter::Reconnect:
      OBS_COUNT("resil.transport.reconnect", n);
      break;
    case TransportCounter::PeerLost:
      OBS_COUNT("resil.transport.peer_lost", n);
      break;
    case TransportCounter::Heartbeat:
      OBS_COUNT("resil.transport.heartbeat", n);
      break;
    case TransportCounter::ExitFallback:
      OBS_COUNT("resil.transport.exit_fallback", n);
      break;
  }
  if (sink_) sink_(c, n);
}

void Transport::record_fin(int peer) {
  COLUMBIA_REQUIRE(peer >= 0 && peer < group_size());
  if (fin_from_.empty()) fin_from_.resize(std::size_t(group_size()), 0);
  fin_from_[std::size_t(peer)] = 1;
}

void Transport::enter_hang() {
  notify_hang();
  // A hung peer does nothing observable: no exit, no final message. Only
  // the launcher's failure detector (stalled heartbeat counter) ends this.
  for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

// --- Wire codec -------------------------------------------------------------

void encode_wire(const WireHeader& h, std::span<const real_t> frame,
                 std::vector<std::uint8_t>& out) {
  out.resize(kWireHeaderBytes + frame.size() * sizeof(real_t));
  std::memcpy(out.data(), &h.seq, 8);
  std::memcpy(out.data() + 8, &h.channel, 4);
  std::memcpy(out.data() + 12, &h.type, 2);
  std::memcpy(out.data() + 14, &h.attempt, 2);
  if (!frame.empty())
    std::memcpy(out.data() + kWireHeaderBytes, frame.data(),
                frame.size() * sizeof(real_t));
}

bool decode_wire(std::span<const std::uint8_t> datagram, WireHeader& h,
                 std::vector<real_t>& frame) {
  if (datagram.size() < kWireHeaderBytes) return false;
  std::memcpy(&h.seq, datagram.data(), 8);
  std::memcpy(&h.channel, datagram.data() + 8, 4);
  std::memcpy(&h.type, datagram.data() + 12, 2);
  std::memcpy(&h.attempt, datagram.data() + 14, 2);
  const std::size_t body = datagram.size() - kWireHeaderBytes;
  if (body % sizeof(real_t) != 0) return false;
  frame.resize(body / sizeof(real_t));
  if (body != 0)
    std::memcpy(frame.data(), datagram.data() + kWireHeaderBytes, body);
  return true;
}

// --- Group exit -------------------------------------------------------------

namespace {

/// Wait on one of several unfinished peers: short, so a Fin from another
/// peer is noticed promptly. A two-member group waits on its only peer for
/// the whole remaining quiet window instead.
constexpr int kExitSliceMs = 2;

}  // namespace

GroupExit leave_group(Transport& t, int quiet_ms) {
  const int n = t.group_size();
  const int me = t.group_rank();
  if (n <= 1) return GroupExit::Alone;
  using Clock = std::chrono::steady_clock;

  std::vector<std::uint8_t> fin, ack, in;
  std::vector<real_t> frame;
  encode_wire({t.next_exchange_seq(), std::uint32_t(me),
               std::uint16_t(WireType::Fin), 0},
              {}, fin);
  const auto put = [&t](int peer, const std::vector<std::uint8_t>& dgram) {
    if (!t.send(peer, dgram)) {
      t.count(TransportCounter::Reconnect);
      t.reconnect(peer);
    }
  };
  for (int p = 0; p < n; ++p)
    if (p != me) put(p, fin);

  // A peer is finished once its Fin arrived (here or earlier, inside a
  // plan's receive loop) or the fabric proved it exited.
  std::vector<bool> gone(std::size_t(n), false);
  const auto finished = [&](int p) {
    return gone[std::size_t(p)] || t.fin_received(p);
  };
  auto last_traffic = Clock::now();
  for (;;) {
    bool open = false;
    for (int p = 0; p < n; ++p) open = open || (p != me && !finished(p));
    if (!open) return GroupExit::Handshake;
    const auto quiet_for = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::now() - last_traffic);
    if (quiet_for.count() >= quiet_ms) {
      t.count(TransportCounter::ExitFallback);
      return GroupExit::Fallback;
    }
    const int remaining = quiet_ms - int(quiet_for.count());
    for (int peer = 0; peer < n; ++peer) {
      if (peer == me) continue;
      // Finished peers are only polled, for their teardown clock-sync
      // Pings; unfinished ones are waited on.
      const int wait = finished(peer) ? 0
                       : n == 2       ? remaining
                                      : std::min(remaining, kExitSliceMs);
      const RecvOutcome ro = t.recv(peer, in, wait);
      if (ro == RecvOutcome::PeerGone) gone[std::size_t(peer)] = true;
      if (ro != RecvOutcome::Ok) continue;
      WireHeader h;
      if (!decode_wire(in, h, frame)) {
        last_traffic = Clock::now();
        continue;
      }
      // A Ping is not traffic: a finished peer probing member 0 for its
      // whole sync budget must not hold this member's quiet window open.
      if (answer_ping(t, peer, h, frame)) continue;
      last_traffic = Clock::now();
      const WireType type = WireType(h.type);
      if (type == WireType::Fin) {
        t.record_fin(peer);
      } else if (type == WireType::Data && h.seq < t.next_exchange_seq()) {
        // Our schedule is complete, so this duplicates a delivered
        // channel whose Ack died in flight; our Fin may have died with
        // it.
        WireHeader a = h;
        a.type = std::uint16_t(WireType::Ack);
        encode_wire(a, {}, ack);
        put(peer, ack);
        put(peer, fin);
      }
    }
  }
}

// --- LocalTransport ---------------------------------------------------------

namespace {

class LocalTransport final : public Transport {
 public:
  LocalTransport(LocalGroup* group, int rank) : group_(group), rank_(rank) {}

  TransportBackend backend() const override { return TransportBackend::Local; }
  int group_rank() const override { return rank_; }
  int group_size() const override { return group_->size(); }

  bool send(int to, std::span<const std::uint8_t> datagram) override {
    COLUMBIA_REQUIRE(to >= 0 && to < group_->size());
    LocalGroup::Pair& p = group_->pair(rank_, to);
    {
      std::lock_guard<std::mutex> lock(p.mu);
      p.q.emplace_back(datagram.begin(), datagram.end());
    }
    p.cv.notify_all();
    return true;
  }

  RecvOutcome recv(int from, std::vector<std::uint8_t>& datagram,
                   int deadline_ms) override {
    COLUMBIA_REQUIRE(from >= 0 && from < group_->size());
    LocalGroup::Pair& p = group_->pair(from, rank_);
    std::unique_lock<std::mutex> lock(p.mu);
    if (!p.cv.wait_for(lock, std::chrono::milliseconds(deadline_ms),
                       [&] { return !p.q.empty(); }))
      return RecvOutcome::Timeout;
    datagram = std::move(p.q.front());
    p.q.pop_front();
    return RecvOutcome::Ok;
  }

  /// Single-process tests cannot watchdog-kill a genuinely hung thread;
  /// surface the injected hang as the error the launcher path would
  /// eventually produce.
  void enter_hang() override {
    notify_hang();
    count(TransportCounter::PeerLost);
    throw TransportError(TransportError::Kind::PeerLost, rank_,
                         "injected peer_hang on rank " +
                             std::to_string(rank_));
  }

 private:
  LocalGroup* group_;
  int rank_;
};

}  // namespace

LocalGroup::LocalGroup(int size)
    : size_(size), pairs_(std::size_t(size) * std::size_t(size)) {
  COLUMBIA_REQUIRE(size >= 1);
}

std::unique_ptr<Transport> LocalGroup::endpoint(int rank) {
  COLUMBIA_REQUIRE(rank >= 0 && rank < size_);
  return std::make_unique<LocalTransport>(this, rank);
}

}  // namespace columbia::core
