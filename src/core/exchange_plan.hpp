// Persistent halo-exchange schedules (paper Figs. 6-7; FASTEST-3D-style
// precomputed communication).
//
// The one halo-exchange path of the repo. A steady-state solver exchanges
// the same halo thousands of times, so an ExchangePlan is built once per
// (partitioning, strategy): it precomputes the per-neighbor message
// layouts (pack gather lists, unpack scatter slots, intra-rank copies) and
// owns persistent send/receive buffers sized at build, so steady-state
// exchanges perform ZERO heap allocations (asserted in
// tests/test_core.cpp).
//
// Both hybrid strategies of paper Fig. 7 are plan policies:
//
//   ThreadToThread (Fig. 7a): every partition is its own rank; one
//     message per communicating partition pair.
//   MasterThread (Fig. 7b): partitions are grouped into "processes" of
//     threads_per_process; values bound for a remote process travel in
//     one packed message and are scattered to the local partitions'
//     request slots. Fewer, larger messages — NSU3D's strategy.
//
// Resilience: every message travels in a checksummed frame
// ([count, crc32, payload...]); faulted frames (COLUMBIA_FAULTS
// halo_corrupt / halo_drop) are rejected and retransmitted, bounded by an
// attempt cap and drawing deterministic fault sites
// halo_site(seq, sender, receiver, attempt). Delivered values therefore
// equal a direct lookup data[from_partition][item], bit for bit, with
// fault injection on or off (tests/test_core.cpp pins this down).
// Multi-process execution: attaching a core::Transport to the options
// turns the plan into one member's view of a process group. Every member
// walks the same channel schedule, and each fills only the partitions it
// owns in the data it posts (nsu3d::FineGather: a rank's own fine rows).
// A channel whose endpoints map to different members moves its frame over
// the real wire (shared-memory ring, TCP socket, ...) with per-message
// deadlines, bounded exponential-backoff retransmission, reconnects after
// resets, and peer-loss detection; the receiving member's slots of the
// result hold exactly the bytes the owner sent, whatever the backend or
// the injected transport faults. Slots of channels a member does not
// receive are filled from its own copy of the posted data (local_validate)
// — meaningful only where every member posts the same data, which the
// protocol tests rely on.
#pragma once

#include <cstdint>

#include "core/halo.hpp"
#include "core/transport.hpp"

namespace columbia::core {

enum class ExchangeStrategy { ThreadToThread, MasterThread };

/// Failure-handling knobs of the wire protocol (only meaningful when a
/// Transport is attached).
struct WireOptions {
  int deadline_ms = 100;    // per-attempt ACK/DATA wait
  int max_attempts = 8;     // retransmit budget per message
  int backoff_base_ms = 1;  // exponential backoff after a timeout
  int backoff_max_ms = 16;
  /// Route channels whose endpoints both map to this member over the wire
  /// anyway (send-to-self). The loopback harness: real rings/sockets,
  /// deterministic single-process execution — how the protocol tests and
  /// the retransmit-ledger checks drive every backend.
  bool loopback_self = false;
};

struct ExchangePlanOptions {
  ExchangeStrategy strategy = ExchangeStrategy::ThreadToThread;
  /// Partitions per process (MasterThread only; must divide the partition
  /// count). ThreadToThread behaves as threads_per_process == 1.
  int threads_per_process = 1;
  /// Multigrid level tag stamped on the plan's halo.xchg spans so the comm
  /// observatory can attribute waits per level; -1 = untagged.
  int level = -1;
  /// Wire backend for cross-member channels; nullptr keeps the in-process
  /// thread transport (both frame endpoints on the calling thread). The
  /// plan maps channel rank r to group member r % group_size.
  Transport* transport = nullptr;
  WireOptions wire;
};

/// Stable strategy id used as the "strat" span attribute (0 = t2t,
/// 1 = master) — the comm observatory's grouping key.
inline int strategy_id(ExchangeStrategy s) {
  return s == ExchangeStrategy::MasterThread ? 1 : 0;
}

/// Cumulative transport counters across all exchanges of one plan: every
/// framed attempt counts as one message and its frame size in bytes, so
/// retransmitted frames count as extra messages/bytes.
struct ExchangeStats {
  std::uint64_t exchanges = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;       // framed wire bytes
  std::uint64_t retransmits = 0;
  std::uint64_t rejected = 0;
};

class ExchangePlan {
 public:
  ExchangePlan(RequestLists requests, ExchangePlanOptions options = {});

  /// Fetches every requested value; the result is parallel to each
  /// partition's request list and owned by the plan (valid until the next
  /// exchange). Performs no heap allocation. Exactly post() + finish(),
  /// so blocking call sites and the split overlap path share one code
  /// path and stay bit-identical by construction.
  const PartitionData& exchange(const PartitionData& data);

  /// Split exchange, begin half: snapshots `data` into the per-channel
  /// payloads (pack gathers + intra-rank copies) and launches the first
  /// wire attempt of every channel this member sends — then returns, so
  /// the caller can compute interior work while the frames are in flight.
  /// `data` may be mutated freely after post() returns.
  void post(const PartitionData& data);

  /// Split exchange, end half: runs the retransmit/ack protocol to
  /// completion for every channel (receives, validates, re-sends as
  /// needed) and scatters the delivered values. Returns the same
  /// reference exchange() does. Requires a matching post().
  const PartitionData& finish();

  /// True between post() and finish().
  bool posted() const { return posted_; }

  index_t num_partitions() const { return nparts_; }
  ExchangeStrategy strategy() const { return opt_.strategy; }
  int threads_per_process() const { return opt_.threads_per_process; }
  const RequestLists& requests() const { return requests_; }
  const ExchangeStats& stats() const { return stats_; }

  // --- Schedule statistics (partition granularity, strategy-independent;
  // the perf machine model consumes these via perf::stats_from_plan) ---

  /// Requested values owned by another partition.
  index_t ghost_items(index_t part) const;
  /// Distinct other partitions `part` requests from.
  index_t neighbor_count(index_t part) const;
  index_t max_ghost_items() const;
  index_t total_ghost_items() const;
  index_t max_neighbors() const;

  /// Wire cost of one steady-state (fault-free) exchange.
  std::uint64_t messages_per_exchange() const {
    return std::uint64_t(channels_.size());
  }
  std::uint64_t payload_bytes_per_exchange() const;

 private:
  /// One directed rank-to-rank message: gather list, persistent wire
  /// buffers, scatter slots. pack[i] feeds unpack[i].
  struct Channel {
    index_t sender = 0;    // rank id (partition or process)
    index_t receiver = 0;
    struct Source {
      index_t part, item;
    };
    struct Slot {
      index_t part, pos;  // destination request-list slot
    };
    std::vector<Source> pack;
    std::vector<Slot> unpack;
    std::vector<real_t> payload;  // packed values (persistent)
    std::vector<real_t> frame;    // checksummed wire frame (persistent)
    std::vector<real_t> recv;     // validated receiver payload (persistent)
  };

  /// Intra-rank request served by direct copy (shared memory).
  struct LocalCopy {
    index_t part, pos, from, item;
  };

  void transmit(Channel& ch, std::uint64_t seq);

  // --- Wire path (transport attached) ---
  //
  // Channel rank -> group member. Members run the identical schedule; per
  // channel exactly one member sends on the wire and one receives
  // (wire_loopback when they coincide and loopback_self is set), and
  // everyone else fills the channel's slots from its own posted data.
  int member_of(index_t rank) const;
  /// One Data attempt of a channel: frame, draw the deterministic fault
  /// sites, encode, put on the wire, account. Shared by wire_send,
  /// wire_loopback and the early attempt-0 launch in post().
  void send_attempt(std::uint32_t ci, Channel& ch, std::uint64_t seq,
                    int attempt, int peer);
  /// `first_sent`: attempt 0 already left in post(); start the protocol at
  /// the ack wait instead of re-sending it.
  void wire_send(std::uint32_t ci, Channel& ch, std::uint64_t seq,
                 bool first_sent);
  void wire_recv(std::uint32_t ci, Channel& ch, std::uint64_t seq);
  void wire_loopback(std::uint32_t ci, Channel& ch, std::uint64_t seq,
                     bool first_sent);
  void local_validate(Channel& ch);
  /// COLUMBIA_FAULTS peer_hang check (site = this member's group rank).
  void maybe_hang();
  void note_retransmit(const Channel& ch);
  enum class Await { Acked, Nacked, Timeout, Reset, PeerGone };
  /// `heard_peer` is set when any decodable frame from the peer arrived in
  /// the window — proof of liveness. A timed-out window that heard the
  /// peer does NOT consume the sender's retransmit budget: the peer is
  /// alive but behind in the schedule (e.g. serially recovering a burst of
  /// reset-flushed acks), and charging attempts against its catch-up time
  /// turns bounded skew into a spurious PeerLost.
  Await await_ack(int peer, std::uint64_t seq, std::uint32_t ci,
                  int deadline_ms, bool& heard_peer);
  void send_control(int peer, WireType type, const WireHeader& data_header);

  // --- Reorder stash (storage lives on the Transport endpoint) ---
  //
  // post() launches every outbound attempt-0 frame before anyone starts
  // receiving, so a member routinely pulls Data for a channel it has not
  // reached yet while waiting on an earlier one. Dropping such frames (the
  // pre-split behavior) would force a full deadline timeout + retransmit
  // per reordering; instead they are stashed — un-acked, so the protocol
  // state machine is unchanged — and the owning wire_recv/wire_loopback
  // consumes them before touching the wire. The stash (and the exchange
  // sequence counter that keys it) belongs to the Transport, not the plan:
  // several plans multiplex one endpoint (per-level halo plans plus
  // inter-level transfer plans), and a frame for plan A often lands while
  // plan B holds the wire — it must be parked where A will find it.
  // Entries are recycled (bounded by the live channel count across plans)
  // and later attempts of the same channel overwrite earlier ones, since
  // only the final attempt is guaranteed clean.
  void stash_put(int peer, const WireHeader& h);
  bool stash_take(int peer, std::uint64_t seq, std::uint32_t ci,
                  WireHeader& h);
  // Ack-ledger companions (storage on the Transport, see ack_ledger()):
  // acks addressed to channels this member has posted but whose wire_send
  // has not started yet are recorded, not dropped.
  void ack_put(int peer, const WireHeader& h);
  bool ack_take(int peer, std::uint64_t seq, std::uint32_t ci);
  /// Control that arrived while a receive loop was waiting on something
  /// else: an Ack goes to the ledger, a Fin to the endpoint's Fin ledger
  /// (core::leave_group). Other control is stale and dropped.
  void note_control(int peer, const WireHeader& h);
  /// Drops stash/ledger leftovers of a completed round (<= seq): every
  /// channel of that round is delivered on this member, so anything still
  /// parked for it is a duplicate. Keeps both pools bounded by the live
  /// in-flight rounds.
  void purge_round(std::uint64_t seq);

  RequestLists requests_;
  ExchangePlanOptions opt_;
  index_t nparts_ = 0;
  std::vector<Channel> channels_;  // (sender, receiver) ascending
  std::vector<LocalCopy> local_;
  PartitionData out_;
  ExchangeStats stats_;
  std::vector<index_t> ghost_items_;     // per partition
  std::vector<index_t> neighbor_count_;  // per partition
  // Largest item requested from each partition (-1 = none): post()
  // checks every posted array is long enough to serve its requests.
  std::vector<index_t> max_item_;
  // Wire scratch (persistent; capacity reused so steady-state wire
  // exchanges allocate nothing once warmed up; untouched without a
  // transport).
  std::vector<std::uint8_t> wire_out_;
  std::vector<std::uint8_t> wire_in_;
  std::vector<std::uint8_t> wire_ctl_;
  std::vector<real_t> wire_frame_;
  // Wire-path exchange sequencing is endpoint-wide: post() draws from
  // Transport::take_exchange_seq() (not the injector's global counter) so
  // every group member stamps round k of the same plan with the same
  // value even when members share a process (the threads backend), and
  // rounds of different plans on one endpoint never collide.
  // Split-exchange state carried from post() to finish().
  bool posted_ = false;
  std::uint64_t posted_seq_ = 0;
  std::uint64_t posted_messages_ = 0;
  std::uint64_t posted_bytes_ = 0;
};

}  // namespace columbia::core
