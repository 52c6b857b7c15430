#include "core/exchange_plan.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <utility>

#include "obs/obs.hpp"
#include "resil/faults.hpp"
#include "support/assert.hpp"

namespace columbia::core {

namespace {

/// Fault-injection attempt cap: a sender never injects into more than
/// kMaxHaloAttempts - 1 attempts of one message, so the final attempt is
/// always clean and every exchange terminates with the original payload.
constexpr int kMaxHaloAttempts = 4;

}  // namespace

ExchangePlan::ExchangePlan(RequestLists requests, ExchangePlanOptions options)
    : requests_(std::move(requests)), opt_(options) {
  nparts_ = index_t(requests_.size());
  COLUMBIA_REQUIRE(nparts_ >= 1);
  if (opt_.transport != nullptr) {
    COLUMBIA_REQUIRE(opt_.transport->group_size() >= 1);
    // The fault-injection bound needs at least one guaranteed-clean final
    // attempt; the deadline must be a real wait.
    COLUMBIA_REQUIRE(opt_.wire.max_attempts >= 2);
    COLUMBIA_REQUIRE(opt_.wire.deadline_ms >= 1);
    COLUMBIA_REQUIRE(opt_.wire.backoff_base_ms >= 0);
    COLUMBIA_REQUIRE(opt_.wire.backoff_max_ms >= opt_.wire.backoff_base_ms);
  }
  const bool master = opt_.strategy == ExchangeStrategy::MasterThread;
  const index_t tpp = master ? index_t(opt_.threads_per_process) : 1;
  COLUMBIA_REQUIRE(tpp >= 1);
  COLUMBIA_REQUIRE(nparts_ % tpp == 0);
  auto rank_of = [&](index_t part) { return part / tpp; };

  // Message layouts, keyed (sender rank, receiver rank). Iterating the
  // receivers' request lists in order gives each channel a deterministic
  // packing, and pack[i] -> unpack[i] lands every value in its request
  // slot.
  std::map<std::pair<index_t, index_t>, Channel> channels;
  ghost_items_.assign(std::size_t(nparts_), 0);
  neighbor_count_.assign(std::size_t(nparts_), 0);
  max_item_.assign(std::size_t(nparts_), -1);
  for (index_t q = 0; q < nparts_; ++q) {
    const index_t qr = rank_of(q);
    std::set<index_t> senders;
    const auto& reqs = requests_[std::size_t(q)];
    for (std::size_t k = 0; k < reqs.size(); ++k) {
      const HaloRequest& r = reqs[k];
      COLUMBIA_REQUIRE(r.from_partition >= 0 && r.from_partition < nparts_);
      COLUMBIA_REQUIRE(r.item >= 0);
      index_t& top = max_item_[std::size_t(r.from_partition)];
      top = std::max(top, r.item);
      if (r.from_partition != q) {
        ghost_items_[std::size_t(q)] += 1;
        senders.insert(r.from_partition);
      }
      const index_t sr = rank_of(r.from_partition);
      if (sr == qr) {
        local_.push_back({q, index_t(k), r.from_partition, r.item});
        continue;
      }
      Channel& ch = channels[{sr, qr}];
      ch.sender = sr;
      ch.receiver = qr;
      ch.pack.push_back({r.from_partition, r.item});
      ch.unpack.push_back({q, index_t(k)});
    }
    neighbor_count_[std::size_t(q)] = index_t(senders.size());
  }

  // Persistent buffers, sized once: steady-state exchanges only rewrite
  // them (resil::frame_payload_into / unframe_payload reuse capacity).
  channels_.reserve(channels.size());
  for (auto& [key, ch] : channels) {
    ch.payload.resize(ch.pack.size());
    ch.frame.reserve(ch.pack.size() + 2);
    ch.recv.reserve(ch.pack.size() + 2);
    channels_.push_back(std::move(ch));
  }
  out_.resize(std::size_t(nparts_));
  for (index_t p = 0; p < nparts_; ++p)
    out_[std::size_t(p)].resize(requests_[std::size_t(p)].size());

  // Plan-shape gauges: static facts about the schedule (not per-exchange
  // traffic, which the halo.plan.* counters track). The flight recorder
  // and columbia_report read these to contextualize comm fractions.
  obs::gauge("halo.plan.partitions").set(std::int64_t(nparts_));
  obs::gauge("halo.plan.messages_per_exchange")
      .set(std::int64_t(messages_per_exchange()));
  obs::gauge("halo.plan.payload_bytes")
      .set(std::int64_t(payload_bytes_per_exchange()));
}

void ExchangePlan::transmit(Channel& ch, std::uint64_t seq) {
  resil::FaultInjector& inj = resil::FaultInjector::global();
  // halo.xchg span attributes: each attempt records exactly one post span
  // (sender side) and one wait span (receiver side), so the observatory's
  // k-th-post-to-k-th-wait matching survives retransmitted attempts. Both
  // endpoints run on the calling thread — the in-process path, and on the
  // wire a channel whose sender and receiver map to the same member — so
  // "wait" here is the validation cost, not a blocking receive (wire_recv
  // records the blocking flavor).
  const std::int64_t sender = std::int64_t(ch.sender);
  const std::int64_t receiver = std::int64_t(ch.receiver);
  const std::int64_t lvl = opt_.level;
  const std::int64_t strat = strategy_id(opt_.strategy);
  const std::int64_t bytes = std::int64_t(ch.pack.size() * sizeof(real_t));
  for (int attempt = 0;; ++attempt) {
    bool faulted = false;
    {
      obs::SpanGuard post("halo.xchg.post", {{"rank", sender},
                                             {"nbr", receiver},
                                             {"level", lvl},
                                             {"strat", strat},
                                             {"bytes", bytes}});
      resil::frame_payload_into(ch.payload, ch.frame);
      if (inj.armed() && attempt + 1 < kMaxHaloAttempts) {
        const std::uint64_t site = resil::halo_site(
            seq, std::uint64_t(ch.sender), std::uint64_t(ch.receiver),
            std::uint64_t(attempt));
        if (inj.should_inject(resil::FaultKind::HaloDrop, site)) {
          resil::drop_frame(ch.frame);
          faulted = true;
        } else if (inj.should_inject(resil::FaultKind::HaloCorrupt, site)) {
          resil::corrupt_frame(ch.frame, site);
          faulted = true;
        }
      }
      stats_.messages += 1;
      stats_.bytes += ch.frame.size() * sizeof(real_t);
    }
    if (faulted) {
      stats_.retransmits += 1;
      OBS_COUNT("resil.halo.retransmits", 1);
      {
        obs::SpanGuard rt("halo.xchg.retransmit", {{"rank", sender},
                                                   {"nbr", receiver},
                                                   {"level", lvl},
                                                   {"strat", strat},
                                                   {"bytes", bytes}});
      }
      // The receiver validates the frame and rejects it (corrupt_frame is
      // a no-op on empty payloads; such a frame still validates and is
      // delivered, ending the attempt loop early).
      bool ok;
      {
        obs::SpanGuard wait("halo.xchg.wait", {{"rank", receiver},
                                               {"nbr", sender},
                                               {"level", lvl},
                                               {"strat", strat}});
        ok = resil::unframe_payload(ch.frame, ch.recv);
      }
      if (!ok) {
        stats_.rejected += 1;
        OBS_COUNT("resil.halo.rejected", 1);
        continue;
      }
      return;
    }
    bool ok;
    {
      obs::SpanGuard wait("halo.xchg.wait", {{"rank", receiver},
                                             {"nbr", sender},
                                             {"level", lvl},
                                             {"strat", strat}});
      ok = resil::unframe_payload(ch.frame, ch.recv);
    }
    COLUMBIA_REQUIRE(ok);
    return;
  }
}

// --- Wire path --------------------------------------------------------------
//
// With a Transport attached the plan is one member's view of a process
// group: channel rank r lives on member r % group_size. Every member runs
// the same schedule in the same global channel order (the deadlock-freedom
// argument: a member blocked receiving channel c has completed every
// channel < c, and sends are buffered, so its peers always progress to c).
// The sender of a channel runs the DATA/ACK/NAK retransmit protocol; the
// receiver adopts the wire-validated payload — the wire bytes are
// load-bearing, which is what makes cross-backend bit-identity a real
// claim rather than a tautology. Members on neither end (and the sender,
// for its copy of out_) fill the channel's slots from their own posted
// data (local_validate).

int ExchangePlan::member_of(index_t rank) const {
  return int(std::uint64_t(rank) %
             std::uint64_t(opt_.transport->group_size()));
}

void ExchangePlan::maybe_hang() {
  resil::FaultInjector& inj = resil::FaultInjector::global();
  if (!inj.armed()) return;
  if (inj.should_inject(resil::FaultKind::PeerHang,
                        std::uint64_t(opt_.transport->group_rank())))
    opt_.transport->enter_hang();
}

void ExchangePlan::local_validate(Channel& ch) {
  // Replicated fill for members not on the receiving end of the wire: the
  // payload this member packed itself, so no traffic, no spans and no
  // fault sites (only the wire sender draws this channel's sites, so the
  // injected set stays identical across group sizes). It never left
  // memory, so a checksum round trip would check nothing.
  ch.recv.assign(ch.payload.begin(), ch.payload.end());
}

void ExchangePlan::note_retransmit(const Channel& ch) {
  stats_.retransmits += 1;
  OBS_COUNT("resil.halo.retransmits", 1);
  opt_.transport->count(TransportCounter::Retransmit);
  obs::SpanGuard rt("halo.xchg.retransmit",
                    {{"rank", std::int64_t(ch.sender)},
                     {"nbr", std::int64_t(ch.receiver)},
                     {"level", std::int64_t(opt_.level)},
                     {"strat", std::int64_t(strategy_id(opt_.strategy))},
                     {"bytes",
                      std::int64_t(ch.pack.size() * sizeof(real_t))}});
}

void ExchangePlan::send_control(int peer, WireType type,
                                const WireHeader& data_header) {
  WireHeader h = data_header;
  h.type = std::uint16_t(type);
  encode_wire(h, {}, wire_ctl_);
  if (!opt_.transport->send(peer, wire_ctl_)) {
    opt_.transport->count(TransportCounter::Reconnect);
    opt_.transport->reconnect(peer);
  }
}

ExchangePlan::Await ExchangePlan::await_ack(int peer, std::uint64_t seq,
                                            std::uint32_t ci, int deadline_ms,
                                            bool& heard_peer) {
  Transport* t = opt_.transport;
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(deadline_ms);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= until) return Await::Timeout;
    const int remaining =
        int(std::chrono::duration_cast<std::chrono::milliseconds>(until - now)
                .count()) +
        1;
    const RecvOutcome ro = t->recv(peer, wire_in_, remaining);
    if (ro == RecvOutcome::Timeout) return Await::Timeout;
    if (ro == RecvOutcome::PeerGone) return Await::PeerGone;
    if (ro != RecvOutcome::Ok) return Await::Reset;
    heard_peer = true;
    WireHeader h;
    if (!decode_wire(wire_in_, h, wire_frame_)) continue;
    const WireType type = WireType(h.type);
    if (type == WireType::Data) {
      // Data from this peer for a channel we already delivered (its Ack
      // was destroyed, e.g. by a reset): re-Ack so the peer can progress.
      // Data for a channel we have NOT delivered yet — routine now that
      // post() launches every first attempt before anyone receives — must
      // NOT be acknowledged here: that would tell the peer it arrived
      // while the wire_recv owning the channel never sees it. Stash it,
      // un-acked, for that wire_recv to consume without a wire round
      // trip.
      if (h.seq < seq || (h.seq == seq && h.channel < ci))
        send_control(peer, WireType::Ack, h);
      else
        stash_put(peer, h);
      continue;
    }
    if (type == WireType::Fin) {
      // The peer completed its whole schedule, which includes delivering
      // every channel we send it: the Fin acknowledges this one too.
      opt_.transport->record_fin(peer);
      return Await::Acked;
    }
    if (h.seq != seq || h.channel != ci) {
      // An Ack addressed to another of our in-flight sends (post() puts
      // every channel's first attempt on the wire before the protocol
      // walks them) — ledger it for the wire_send that owns it. A Nak for
      // another channel stays timeout-recovered (rare and cheap).
      if (type == WireType::Ack) ack_put(peer, h);
      continue;
    }
    if (type == WireType::Ack) return Await::Acked;
    if (type == WireType::Nak) return Await::Nacked;
  }
}

void ExchangePlan::send_attempt(std::uint32_t ci, Channel& ch,
                                std::uint64_t seq, int attempt, int peer) {
  Transport* t = opt_.transport;
  resil::FaultInjector& inj = resil::FaultInjector::global();
  const int fault_cap = std::min(kMaxHaloAttempts, opt_.wire.max_attempts);
  bool drop_on_wire = false;
  bool reset_after_send = false;
  {
    obs::SpanGuard post(
        "halo.xchg.post",
        {{"rank", std::int64_t(ch.sender)},
         {"nbr", std::int64_t(ch.receiver)},
         {"level", std::int64_t(opt_.level)},
         {"strat", std::int64_t(strategy_id(opt_.strategy))},
         {"bytes", std::int64_t(ch.pack.size() * sizeof(real_t))}});
    resil::frame_payload_into(ch.payload, ch.frame);
    if (inj.armed() && attempt + 1 < fault_cap) {
      const std::uint64_t site = resil::halo_site(
          seq, std::uint64_t(ch.sender), std::uint64_t(ch.receiver),
          std::uint64_t(attempt));
      if (inj.should_inject(resil::FaultKind::MsgDelay, site))
        std::this_thread::sleep_for(std::chrono::milliseconds(
            inj.spec().param[std::size_t(resil::FaultKind::MsgDelay)]));
      if (inj.should_inject(resil::FaultKind::ConnReset, site))
        reset_after_send = true;
      if (inj.should_inject(resil::FaultKind::MsgDrop, site))
        drop_on_wire = true;
      else if (inj.should_inject(resil::FaultKind::HaloDrop, site))
        resil::drop_frame(ch.frame);
      else if (inj.should_inject(resil::FaultKind::HaloCorrupt, site))
        resil::corrupt_frame(ch.frame, site);
    }
    encode_wire({seq, ci, std::uint16_t(WireType::Data),
                 std::uint16_t(attempt)},
                ch.frame, wire_out_);
    if (!drop_on_wire && !t->send(peer, wire_out_)) {
      t->count(TransportCounter::Reconnect);
      t->reconnect(peer);
    }
    stats_.messages += 1;
    stats_.bytes += ch.frame.size() * sizeof(real_t);
  }
  // The injected reset lands AFTER the send: the link dies with the
  // message in flight, the way real resets lose data.
  if (reset_after_send) t->inject_reset(peer);
}

void ExchangePlan::stash_put(int peer, const WireHeader& h) {
  auto& stash = opt_.transport->frame_stash();
  Transport::StashedFrame* match = nullptr;
  Transport::StashedFrame* vacant = nullptr;
  for (Transport::StashedFrame& s : stash) {
    if (s.full) {
      if (s.peer == peer && s.header.seq == h.seq &&
          s.header.channel == h.channel) {
        match = &s;
        break;
      }
    } else if (vacant == nullptr) {
      vacant = &s;
    }
  }
  Transport::StashedFrame* slot = match != nullptr ? match : vacant;
  if (slot == nullptr) {
    stash.emplace_back();
    slot = &stash.back();
  }
  slot->full = true;
  slot->peer = peer;
  slot->header = h;
  slot->frame = wire_frame_;  // vector assign recycles capacity
}

bool ExchangePlan::stash_take(int peer, std::uint64_t seq, std::uint32_t ci,
                              WireHeader& h) {
  for (Transport::StashedFrame& s : opt_.transport->frame_stash()) {
    if (!s.full || s.peer != peer || s.header.seq != seq ||
        s.header.channel != ci)
      continue;
    h = s.header;
    wire_frame_ = s.frame;
    s.full = false;
    return true;
  }
  return false;
}

void ExchangePlan::ack_put(int peer, const WireHeader& h) {
  auto& ledger = opt_.transport->ack_ledger();
  Transport::AckRecord* vacant = nullptr;
  for (Transport::AckRecord& a : ledger) {
    if (a.full) {
      if (a.peer == peer && a.seq == h.seq && a.channel == h.channel)
        return;  // duplicate ack, already recorded
    } else if (vacant == nullptr) {
      vacant = &a;
    }
  }
  if (vacant == nullptr) {
    ledger.emplace_back();
    vacant = &ledger.back();
  }
  vacant->full = true;
  vacant->peer = peer;
  vacant->seq = h.seq;
  vacant->channel = h.channel;
}

bool ExchangePlan::ack_take(int peer, std::uint64_t seq, std::uint32_t ci) {
  for (Transport::AckRecord& a : opt_.transport->ack_ledger()) {
    if (a.full && a.peer == peer && a.seq == seq && a.channel == ci) {
      a.full = false;
      return true;
    }
  }
  return false;
}

void ExchangePlan::note_control(int peer, const WireHeader& h) {
  switch (WireType(h.type)) {
    case WireType::Ack: ack_put(peer, h); break;
    case WireType::Fin: opt_.transport->record_fin(peer); break;
    default: break;  // stale Nak/Pong: timeout-recovered or unsolicited
  }
}

void ExchangePlan::purge_round(std::uint64_t seq) {
  // Anything still parked for a completed round is a duplicate (a
  // retransmission whose original already landed, or an ack consumed by
  // proxy). In the exotic case of rounds finished out of post order a
  // purged entry could still have an owner — which then recovers through
  // one ordinary timeout + retransmit, so the purge is always safe.
  for (Transport::StashedFrame& s : opt_.transport->frame_stash())
    if (s.full && s.header.seq <= seq) s.full = false;
  for (Transport::AckRecord& a : opt_.transport->ack_ledger())
    if (a.full && a.seq <= seq) a.full = false;
}

void ExchangePlan::wire_send(std::uint32_t ci, Channel& ch, std::uint64_t seq,
                             bool first_sent) {
  Transport* t = opt_.transport;
  maybe_hang();
  const int peer = member_of(ch.receiver);
  int backoff = opt_.wire.backoff_base_ms;
  bool peer_answered = false;
  bool sent = first_sent;  // current attempt's frame already on the wire?
  std::uint64_t sends = first_sent ? 1 : 0;
  int attempt = 0;
  while (attempt < opt_.wire.max_attempts) {
    // The ack may already be in the ledger: the peer answered while this
    // member's protocol was waiting on an earlier channel (post() puts
    // every first attempt on the wire up front). A recorded Fin from the
    // peer acknowledges every channel it receives.
    if (ack_take(peer, seq, ci) || t->fin_received(peer)) return;
    if (!sent) {
      if (sends > 0) note_retransmit(ch);
      send_attempt(ci, ch, seq, attempt, peer);
      ++sends;
      sent = true;
    }
    bool heard = false;
    const Await aw = await_ack(peer, seq, ci, opt_.wire.deadline_ms, heard);
    switch (aw) {
      case Await::Acked:
        return;
      case Await::PeerGone:
        // The fabric proved the peer process exited. If it exited cleanly
        // it completed the identical SPMD schedule, which includes
        // delivering this channel — its Ack died with it, so treat the
        // send as acknowledged. If it crashed instead, the launcher sees
        // its exit status and fails or relaunches the whole group; our
        // verdict on this channel is moot either way.
        return;
      case Await::Nacked:
        peer_answered = true;
        ++attempt;
        sent = false;  // receiver rejected the frame; retransmit immediately
        break;
      case Await::Reset:
        t->count(TransportCounter::Reconnect);
        t->reconnect(peer);
        ++attempt;
        sent = false;
        break;
      case Await::Timeout:
        // A window that heard the peer is not a dead window: the peer is
        // alive but behind (e.g. serially recovering reset-flushed acks,
        // or still computing before its finish()). Retransmit — our
        // traffic is the peer's liveness evidence too, and the resend
        // covers a flushed frame — but charge no budget: attempts measure
        // peer silence, and a live peer's catch-up time must not convert
        // into PeerLost.
        if (heard) {
          sent = false;
          break;
        }
        t->count(TransportCounter::Timeout);
        if (backoff > 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
        backoff = std::min(std::max(backoff, 1) * 2,
                           opt_.wire.backoff_max_ms);
        ++attempt;
        sent = false;
        break;
    }
  }
  const auto kind = peer_answered ? TransportError::Kind::DeliveryFailed
                                  : TransportError::Kind::PeerLost;
  t->count(TransportCounter::PeerLost);
  throw TransportError(
      kind, peer,
      std::string("halo channel ") + std::to_string(ci) + " (rank " +
          std::to_string(ch.sender) + " -> " + std::to_string(ch.receiver) +
          ", level " + std::to_string(opt_.level) + ", seq " +
          std::to_string(seq) + ") undelivered to member " +
          std::to_string(peer) + " after " +
          std::to_string(opt_.wire.max_attempts) + " attempts over " +
          t->name());
}

void ExchangePlan::wire_recv(std::uint32_t ci, Channel& ch,
                             std::uint64_t seq) {
  Transport* t = opt_.transport;
  maybe_hang();
  const int peer = member_of(ch.sender);
  const std::int64_t sender = std::int64_t(ch.sender);
  const std::int64_t receiver = std::int64_t(ch.receiver);
  const std::int64_t lvl = opt_.level;
  const std::int64_t strat = strategy_id(opt_.strategy);
  // Outlast the sender's whole retransmit schedule (attempts + backoff)
  // plus compute skew between members before declaring the peer lost. The
  // window SLIDES on traffic: every frame the peer puts on the wire —
  // whatever it addresses — is proof it is alive and working through its
  // schedule, so only sustained silence runs the patience out.
  const auto patience = std::chrono::milliseconds(opt_.wire.deadline_ms) *
                        (opt_.wire.max_attempts * 2 + 2);
  auto until = std::chrono::steady_clock::now() + patience;
  for (;;) {
    // Stashed delivery first: the frame arrived while this member was
    // busy elsewhere in the schedule — the aged interval it spent in the
    // stash is exactly the wait the split path claims back.
    {
      WireHeader sh;
      if (stash_take(peer, seq, ci, sh)) {
        bool ok;
        {
          obs::SpanGuard wait("halo.xchg.wait", {{"rank", receiver},
                                                 {"nbr", sender},
                                                 {"level", lvl},
                                                 {"strat", strat}});
          ok = resil::unframe_payload(wire_frame_, ch.recv);
        }
        if (ok) {
          send_control(peer, WireType::Ack, sh);
          return;
        }
        stats_.rejected += 1;
        OBS_COUNT("resil.halo.rejected", 1);
        send_control(peer, WireType::Nak, sh);
      }
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= until) break;
    const int remaining =
        int(std::chrono::duration_cast<std::chrono::milliseconds>(until - now)
                .count()) +
        1;
    RecvOutcome ro;
    {
      obs::SpanGuard wait("halo.xchg.wait", {{"rank", receiver},
                                             {"nbr", sender},
                                             {"level", lvl},
                                             {"strat", strat}});
      ro = t->recv(peer, wire_in_,
                   std::min(remaining, opt_.wire.deadline_ms));
    }
    if (ro == RecvOutcome::Timeout) {
      t->count(TransportCounter::Timeout);
      continue;
    }
    if (ro == RecvOutcome::PeerGone) {
      // The sender's process exited while still owing us this channel —
      // it cannot have completed its schedule, so it crashed. No data is
      // coming; fail now rather than running out the patience window.
      break;
    }
    if (ro != RecvOutcome::Ok) {
      t->count(TransportCounter::Reconnect);
      t->reconnect(peer);
      continue;
    }
    until = std::chrono::steady_clock::now() + patience;  // peer is alive
    WireHeader h;
    if (!decode_wire(wire_in_, h, wire_frame_)) continue;
    if (WireType(h.type) != WireType::Data) {
      note_control(peer, h);
      continue;
    }
    if (h.seq != seq || h.channel != ci) {
      // Duplicate of an already-delivered channel whose Ack was lost:
      // re-Ack it. A frame from the future — post() batching lets the
      // peer run ahead, even into the next round — is stashed, un-acked,
      // for the wire_recv that owns it.
      if (h.seq < seq || (h.seq == seq && h.channel < ci))
        send_control(peer, WireType::Ack, h);
      else
        stash_put(peer, h);
      continue;
    }
    if (resil::unframe_payload(wire_frame_, ch.recv)) {
      send_control(peer, WireType::Ack, h);
      return;
    }
    stats_.rejected += 1;
    OBS_COUNT("resil.halo.rejected", 1);
    send_control(peer, WireType::Nak, h);
  }
  t->count(TransportCounter::PeerLost);
  throw TransportError(
      TransportError::Kind::PeerLost, peer,
      std::string("no halo data for channel ") + std::to_string(ci) +
          " (rank " + std::to_string(ch.sender) + " -> " +
          std::to_string(ch.receiver) + ") from member " +
          std::to_string(peer) + " over " + t->name());
}

void ExchangePlan::wire_loopback(std::uint32_t ci, Channel& ch,
                                 std::uint64_t seq, bool first_sent) {
  // Both endpoints map to this member and loopback_self is set: drive the
  // full send/receive protocol inline through the real backend (rings,
  // sockets) — the single-process harness for wire tests. Delivery itself
  // is the acknowledgement, so no Ack/Nak traffic. Span and ledger
  // accounting matches transmit(): one post + one wait per attempt, one
  // retransmit span per re-attempt.
  Transport* t = opt_.transport;
  maybe_hang();
  const int self = t->group_rank();
  const std::int64_t sender = std::int64_t(ch.sender);
  const std::int64_t receiver = std::int64_t(ch.receiver);
  const std::int64_t lvl = opt_.level;
  const std::int64_t strat = strategy_id(opt_.strategy);
  int backoff = opt_.wire.backoff_base_ms;
  for (int attempt = 0; attempt < opt_.wire.max_attempts; ++attempt) {
    if (attempt > 0) note_retransmit(ch);
    if (!(attempt == 0 && first_sent))
      send_attempt(ci, ch, seq, attempt, self);
    // One attempt = one deadline window. Inside it the shared self
    // mailbox is drained: frames for OTHER channels (routine with post()
    // batching every first attempt) are stashed without charging the
    // attempt budget; only a timeout or a rejected payload of THIS
    // channel ends the window and triggers a resend.
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(opt_.wire.deadline_ms);
    bool resend = false;
    while (!resend) {
      {
        WireHeader sh;
        if (stash_take(self, seq, ci, sh)) {
          bool ok;
          {
            obs::SpanGuard wait("halo.xchg.wait", {{"rank", receiver},
                                                   {"nbr", sender},
                                                   {"level", lvl},
                                                   {"strat", strat}});
            ok = resil::unframe_payload(wire_frame_, ch.recv);
          }
          if (ok) return;
          stats_.rejected += 1;
          OBS_COUNT("resil.halo.rejected", 1);
          break;  // rejected: resend immediately
        }
      }
      const auto now = std::chrono::steady_clock::now();
      if (now >= until) {
        resend = true;
        t->count(TransportCounter::Timeout);
        if (backoff > 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
        backoff =
            std::min(std::max(backoff, 1) * 2, opt_.wire.backoff_max_ms);
        break;
      }
      const int remaining =
          int(std::chrono::duration_cast<std::chrono::milliseconds>(until -
                                                                    now)
                  .count()) +
          1;
      RecvOutcome ro;
      {
        obs::SpanGuard wait("halo.xchg.wait", {{"rank", receiver},
                                               {"nbr", sender},
                                               {"level", lvl},
                                               {"strat", strat}});
        ro = t->recv(self, wire_in_, remaining);
      }
      if (ro == RecvOutcome::Timeout) {
        resend = true;
        t->count(TransportCounter::Timeout);
        if (backoff > 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
        backoff =
            std::min(std::max(backoff, 1) * 2, opt_.wire.backoff_max_ms);
        break;
      }
      if (ro != RecvOutcome::Ok) {
        // The in-flight frame died with the link; reconnect and wait out
        // the window, then resend.
        t->count(TransportCounter::Reconnect);
        t->reconnect(self);
        continue;
      }
      WireHeader h;
      if (!decode_wire(wire_in_, h, wire_frame_)) continue;
      if (WireType(h.type) != WireType::Data) {
        note_control(self, h);
        continue;
      }
      if (h.seq != seq || h.channel != ci) {
        // Future frame (a later self channel launched by post()): stash
        // it for the loopback that owns it. Anything older is a stale
        // leftover (e.g. flushed by an injected reset) — drop it.
        if (h.seq > seq || (h.seq == seq && h.channel > ci))
          stash_put(self, h);
        continue;
      }
      if (resil::unframe_payload(wire_frame_, ch.recv)) return;
      stats_.rejected += 1;
      OBS_COUNT("resil.halo.rejected", 1);
      break;  // rejected: resend immediately
    }
  }
  t->count(TransportCounter::PeerLost);
  throw TransportError(
      TransportError::Kind::DeliveryFailed, self,
      std::string("loopback halo channel ") + std::to_string(ci) +
          " undelivered after " + std::to_string(opt_.wire.max_attempts) +
          " attempts over " + t->name());
}

const PartitionData& ExchangePlan::exchange(const PartitionData& data) {
  OBS_SPAN("halo.plan.exchange");
  post(data);
  return finish();
}

void ExchangePlan::post(const PartitionData& data) {
  COLUMBIA_REQUIRE(!posted_);
  COLUMBIA_REQUIRE(index_t(data.size()) == nparts_);
  for (index_t p = 0; p < nparts_; ++p)
    COLUMBIA_REQUIRE(index_t(data[std::size_t(p)].size()) >
                     max_item_[std::size_t(p)]);
  // The wire protocol needs every group member to stamp the same round
  // with the same sequence number. The injector's process-global counter
  // cannot provide that when several members share one process (the
  // threads backend): each member's exchange() would claim a different
  // value and the peers would discard each other's frames as stale. The
  // endpoint's counter is identical on every member by SPMD construction
  // (all members post the same plans in the same order), and shared across
  // the plans multiplexed over this endpoint so their rounds never collide.
  posted_seq_ = opt_.transport != nullptr
                    ? opt_.transport->take_exchange_seq()
                    : resil::FaultInjector::global().next_exchange_seq();
  posted_messages_ = stats_.messages;
  posted_bytes_ = stats_.bytes;

  // Intra-rank requests: direct shared-memory copies.
  for (const LocalCopy& c : local_)
    out_[std::size_t(c.part)][std::size_t(c.pos)] =
        data[std::size_t(c.from)][std::size_t(c.item)];

  // Gather every channel's payload (a snapshot — the caller may mutate
  // `data` the moment post() returns), then put this member's first Data
  // attempts on the wire so they fly while the caller computes. Fault
  // sites are pure in (seq, sender, receiver, attempt), so launching
  // attempt 0 early draws exactly the injections the blocking path draws.
  const std::int64_t lvl = opt_.level;
  const std::int64_t strat = strategy_id(opt_.strategy);
  bool hang_checked = false;
  for (std::size_t ci = 0; ci < channels_.size(); ++ci) {
    Channel& ch = channels_[ci];
    {
      obs::SpanGuard pack("halo.xchg.pack",
                          {{"rank", std::int64_t(ch.sender)},
                           {"nbr", std::int64_t(ch.receiver)},
                           {"level", lvl},
                           {"strat", strat},
                           {"bytes",
                            std::int64_t(ch.pack.size() * sizeof(real_t))}});
      for (std::size_t i = 0; i < ch.pack.size(); ++i)
        ch.payload[i] =
            data[std::size_t(ch.pack[i].part)][std::size_t(ch.pack[i].item)];
    }
    if (opt_.transport == nullptr) continue;
    const int me = opt_.transport->group_rank();
    const int send_member = member_of(ch.sender);
    const int recv_member = member_of(ch.receiver);
    const bool self_wire = send_member == recv_member &&
                           send_member == me && opt_.wire.loopback_self;
    if ((send_member == me && recv_member != send_member) || self_wire) {
      if (!hang_checked) {
        maybe_hang();
        hang_checked = true;
      }
      send_attempt(std::uint32_t(ci), ch, posted_seq_, 0,
                   self_wire ? me : recv_member);
    }
  }
  posted_ = true;
}

const PartitionData& ExchangePlan::finish() {
  COLUMBIA_REQUIRE(posted_);
  posted_ = false;
  const std::uint64_t seq = posted_seq_;
  const std::int64_t lvl = opt_.level;
  const std::int64_t strat = strategy_id(opt_.strategy);

  // Complete every channel in global order (the deadlock-freedom order),
  // then scatter. The sender side resumes at its ack wait (attempt 0 left
  // in post()); receivers consume stashed frames before touching the
  // wire; everyone else fills locally.
  for (std::size_t ci = 0; ci < channels_.size(); ++ci) {
    Channel& ch = channels_[ci];
    if (opt_.transport == nullptr) {
      transmit(ch, seq);
    } else {
      const int me = opt_.transport->group_rank();
      const int send_member = member_of(ch.sender);
      const int recv_member = member_of(ch.receiver);
      if (send_member == recv_member) {
        if (send_member != me)
          local_validate(ch);
        else if (opt_.wire.loopback_self)
          wire_loopback(std::uint32_t(ci), ch, seq, true);
        else
          transmit(ch, seq);
      } else if (send_member == me) {
        wire_send(std::uint32_t(ci), ch, seq, true);
        // The sender's out_ still needs this channel's values.
        local_validate(ch);
      } else if (recv_member == me) {
        wire_recv(std::uint32_t(ci), ch, seq);
      } else {
        local_validate(ch);
      }
    }
    obs::SpanGuard unpack(
        "halo.xchg.unpack",
        {{"rank", std::int64_t(ch.receiver)},
         {"nbr", std::int64_t(ch.sender)},
         {"level", lvl},
         {"strat", strat},
         {"bytes", std::int64_t(ch.unpack.size() * sizeof(real_t))}});
    for (std::size_t i = 0; i < ch.unpack.size(); ++i)
      out_[std::size_t(ch.unpack[i].part)][std::size_t(ch.unpack[i].pos)] =
          ch.recv[i];
  }

  // Every channel of this round is delivered on this member; leftover
  // stash/ledger entries for it (or for any earlier round) are duplicates.
  if (opt_.transport != nullptr) purge_round(seq);

  stats_.exchanges += 1;
  OBS_COUNT("halo.plan.exchanges", 1);
  OBS_COUNT("halo.plan.messages", stats_.messages - posted_messages_);
  OBS_COUNT("halo.plan.bytes", stats_.bytes - posted_bytes_);
  return out_;
}

index_t ExchangePlan::ghost_items(index_t part) const {
  return ghost_items_[std::size_t(part)];
}

index_t ExchangePlan::neighbor_count(index_t part) const {
  return neighbor_count_[std::size_t(part)];
}

index_t ExchangePlan::max_ghost_items() const {
  index_t m = 0;
  for (index_t g : ghost_items_) m = std::max(m, g);
  return m;
}

index_t ExchangePlan::total_ghost_items() const {
  index_t t = 0;
  for (index_t g : ghost_items_) t += g;
  return t;
}

index_t ExchangePlan::max_neighbors() const {
  index_t m = 0;
  for (index_t d : neighbor_count_) m = std::max(m, d);
  return m;
}

std::uint64_t ExchangePlan::payload_bytes_per_exchange() const {
  std::uint64_t b = 0;
  for (const Channel& ch : channels_)
    b += std::uint64_t(ch.pack.size()) * sizeof(real_t);
  return b;
}

}  // namespace columbia::core
