// NTP-style steady-clock synchronization over the Transport seam.
//
// Forked rank processes each pin a private trace epoch, so their telemetry
// shards cannot be merged onto one timeline by timestamp alone. This
// module estimates every member's steady-clock offset against member 0
// with the classic four-timestamp exchange: the client stamps t0 when a
// Ping leaves, the server stamps t1 on receipt and t2 when the Pong goes
// back, the client stamps t3 on return, and
//
//   offset = ((t1 - t0) + (t2 - t3)) / 2      (server clock - client clock)
//   rtt    = (t3 - t0) - (t2 - t1)
//
// Server processing time cancels out of the offset, so a busy member 0
// polling many clients round-robin does not bias the estimate; asymmetric
// path delay does, which is why the estimate is taken from the minimum-RTT
// sample of a burst (the sample least contaminated by queueing).
//
// The handshake runs at group start and again at teardown (process_group
// child_main), bounding drift over the run; both estimates land in the
// telemetry shard header and the offline merger applies them. Every loop
// is budget-bounded: a dead or hung peer costs the budget, never a hang —
// the group watchdog stays the only failure detector.
//
// On a single host CLOCK_MONOTONIC is machine-wide, so measured offsets
// are near zero (the RTT floor is the resolution limit); the machinery
// exists for the multi-host TCP story and is pinned by synthetic-skew unit
// fixtures either way.
#pragma once

#include <cstdint>
#include <vector>

#include "core/transport.hpp"

namespace columbia::core {

/// One completed four-timestamp exchange, client-side steady-clock ns for
/// t0/t3 and server-side for t1/t2.
struct ClockSample {
  std::int64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;

  std::int64_t offset_ns() const { return ((t1 - t0) + (t2 - t3)) / 2; }
  std::int64_t rtt_ns() const { return (t3 - t0) - (t2 - t1); }
};

struct ClockEstimate {
  /// Server clock minus local clock: add to a local timestamp to express
  /// it on the server's (member 0's) clock. 0 for member 0 itself.
  std::int64_t offset_ns = 0;
  /// Round-trip of the minimum-RTT sample the offset was taken from.
  std::int64_t rtt_ns = 0;
  int samples = 0;     // accepted samples in the burst
  bool synced = false; // at least one sample with a non-negative rtt
};

/// Pure min-RTT estimator over a burst (unit-test fixture surface):
/// discards samples with negative rtt (clock stepped mid-exchange), takes
/// offset and rtt from the minimum-rtt survivor.
ClockEstimate estimate_clock_offset(const std::vector<ClockSample>& samples);

struct ClockSyncOptions {
  int pings = 8;           // burst size per client
  int ping_deadline_ms = 25;   // wait for one Pong
  int ping_attempts = 3;       // resends of one Ping before moving on
  int budget_ms = 1500;        // hard cap for the whole client burst
  int server_quiet_ms = 300;   // server exits after this long without a Ping
  int server_budget_ms = 3000; // hard cap for the whole serving window
};

/// Client side (members != 0): runs the burst against member 0 and returns
/// the estimate. Never throws and never blocks past the budget; an
/// unreachable server yields synced == false. Stray Data frames observed
/// while waiting for Pongs are re-acknowledged when they duplicate an
/// already-delivered exchange, so teardown sync cannot strand a peer that
/// lost our final Ack.
ClockEstimate sync_clock_client(Transport& t, const ClockSyncOptions& opt = {});

/// Server side (member 0): answers Pings from every other member until
/// each has been served `opt.pings` Pongs, the quiet window elapses with
/// no traffic, or the budget runs out. Returns the identity estimate
/// (offset 0, synced) — member 0 defines the group clock.
ClockEstimate sync_clock_server(Transport& t, const ClockSyncOptions& opt = {});

/// Dispatches on rank: member 0 serves, everyone else runs the burst.
/// Single-member groups return the identity estimate immediately.
ClockEstimate sync_group_clock(Transport& t, const ClockSyncOptions& opt = {});

/// Answers one already-decoded Ping datagram with a Pong (used by
/// core::leave_group, whose mailbox sweep may intercept a peer's
/// teardown-sync Pings before the local member reaches its own sync).
/// Returns false if the datagram is not a Ping.
bool answer_ping(Transport& t, int peer, const WireHeader& h,
                 const std::vector<real_t>& frame);

}  // namespace columbia::core
