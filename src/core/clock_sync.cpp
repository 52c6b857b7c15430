#include "core/clock_sync.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

#include "support/timer.hpp"

namespace columbia::core {

namespace {

static_assert(sizeof(real_t) == sizeof(std::int64_t),
              "clock-sync timestamps ride the real_t frame payload");

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() { return std::int64_t(WallTimer::now_ns()); }

real_t pack_ts(std::int64_t ns) { return std::bit_cast<real_t>(ns); }
std::int64_t unpack_ts(real_t w) { return std::bit_cast<std::int64_t>(w); }

int elapsed_ms(Clock::time_point since) {
  return int(std::chrono::duration_cast<std::chrono::milliseconds>(
                 Clock::now() - since)
                 .count());
}

void send_datagram(Transport& t, int peer, const WireHeader& h,
                   std::span<const real_t> frame,
                   std::vector<std::uint8_t>& scratch) {
  encode_wire(h, frame, scratch);
  // Lost sends resolve like lost datagrams: the other side retries or
  // gives up within its budget. No reconnect dance on this side channel.
  (void)t.send(peer, scratch);
}

/// Duplicate Data observed while the sync side channel owns the mailbox:
/// re-acknowledge it exactly the way leave_group() does, so a peer whose
/// final Ack was destroyed is not stranded retransmitting into the sync
/// window.
void reack_stale_data(Transport& t, int peer, const WireHeader& h,
                      std::vector<std::uint8_t>& scratch) {
  if (WireType(h.type) != WireType::Data) return;
  if (h.seq >= t.next_exchange_seq()) return;
  WireHeader ack = h;
  ack.type = std::uint16_t(WireType::Ack);
  send_datagram(t, peer, ack, {}, scratch);
}

}  // namespace

ClockEstimate estimate_clock_offset(const std::vector<ClockSample>& samples) {
  ClockEstimate est;
  const ClockSample* best = nullptr;
  for (const ClockSample& s : samples) {
    if (s.rtt_ns() < 0) continue;  // clock stepped mid-exchange; unusable
    ++est.samples;
    if (best == nullptr || s.rtt_ns() < best->rtt_ns()) best = &s;
  }
  if (best != nullptr) {
    est.offset_ns = best->offset_ns();
    est.rtt_ns = best->rtt_ns();
    est.synced = true;
  }
  return est;
}

bool answer_ping(Transport& t, int peer, const WireHeader& h,
                 const std::vector<real_t>& frame) {
  if (WireType(h.type) != WireType::Ping || frame.empty()) return false;
  const std::int64_t t1 = now_ns();
  WireHeader ph = h;
  ph.type = std::uint16_t(WireType::Pong);
  const real_t payload[3] = {frame[0], pack_ts(t1), pack_ts(now_ns())};
  std::vector<std::uint8_t> scratch;
  send_datagram(t, peer, ph, payload, scratch);
  return true;
}

ClockEstimate sync_clock_client(Transport& t, const ClockSyncOptions& opt) {
  const int me = t.group_rank();
  std::vector<std::uint8_t> scratch;
  std::vector<std::uint8_t> in;
  std::vector<real_t> frame;
  std::vector<ClockSample> samples;
  const auto start = Clock::now();

  for (int k = 0; k < opt.pings; ++k) {
    bool got = false;
    for (int attempt = 0; attempt < opt.ping_attempts && !got; ++attempt) {
      if (elapsed_ms(start) >= opt.budget_ms) break;
      WireHeader h;
      h.seq = std::uint64_t(k);
      h.channel = std::uint32_t(me);
      h.type = std::uint16_t(WireType::Ping);
      h.attempt = std::uint16_t(attempt);
      const real_t payload[1] = {pack_ts(now_ns())};
      send_datagram(t, 0, h, payload, scratch);

      const auto until =
          Clock::now() + std::chrono::milliseconds(opt.ping_deadline_ms);
      while (!got) {
        const auto now = Clock::now();
        if (now >= until || elapsed_ms(start) >= opt.budget_ms) break;
        const int remaining =
            int(std::chrono::duration_cast<std::chrono::milliseconds>(until -
                                                                      now)
                    .count()) +
            1;
        if (t.recv(0, in, remaining) != RecvOutcome::Ok) break;
        WireHeader rh;
        if (!decode_wire(in, rh, frame)) continue;
        if (WireType(rh.type) == WireType::Pong && rh.channel == std::uint32_t(me) &&
            rh.seq == std::uint64_t(k) && frame.size() >= 3) {
          // A Pong for an earlier attempt of this probe is still a valid
          // sample: it echoes the t0 it was pinged with.
          ClockSample s;
          s.t0 = unpack_ts(frame[0]);
          s.t1 = unpack_ts(frame[1]);
          s.t2 = unpack_ts(frame[2]);
          s.t3 = now_ns();
          samples.push_back(s);
          got = true;
          continue;
        }
        reack_stale_data(t, 0, rh, scratch);
      }
    }
    if (elapsed_ms(start) >= opt.budget_ms) break;
  }
  return estimate_clock_offset(samples);
}

ClockEstimate sync_clock_server(Transport& t, const ClockSyncOptions& opt) {
  const int n = t.group_size();
  std::vector<int> served(std::size_t(n), 0);
  std::vector<std::uint8_t> scratch;
  std::vector<std::uint8_t> in;
  std::vector<real_t> frame;
  const auto start = Clock::now();
  auto last_traffic = start;

  auto all_served = [&] {
    for (int p = 0; p < n; ++p)
      if (p != t.group_rank() && served[std::size_t(p)] < opt.pings)
        return false;
    return true;
  };

  while (!all_served() && elapsed_ms(start) < opt.server_budget_ms &&
         elapsed_ms(last_traffic) < opt.server_quiet_ms) {
    for (int peer = 0; peer < n; ++peer) {
      if (peer == t.group_rank()) continue;
      if (t.recv(peer, in, 5) != RecvOutcome::Ok) continue;
      last_traffic = Clock::now();
      WireHeader h;
      if (!decode_wire(in, h, frame)) continue;
      if (answer_ping(t, peer, h, frame)) {
        served[std::size_t(peer)] += 1;
        continue;
      }
      reack_stale_data(t, peer, h, scratch);
    }
  }

  ClockEstimate est;
  est.synced = true;  // member 0 defines the group clock
  return est;
}

ClockEstimate sync_group_clock(Transport& t, const ClockSyncOptions& opt) {
  if (t.group_size() <= 1) {
    ClockEstimate est;
    est.synced = true;
    return est;
  }
  return t.group_rank() == 0 ? sync_clock_server(t, opt)
                             : sync_clock_client(t, opt);
}

}  // namespace columbia::core
