// Pluggable wire layer under core::ExchangePlan (paper Figs. 16-18: the
// same halo schedule over different interconnects).
//
// A Transport moves whole datagrams between the members of a process
// group; the plan's wire protocol (exchange_plan.cpp) layers the existing
// checksummed-frame/retransmit discipline on top, plus the failure
// handling real interconnects need: per-message deadlines, bounded
// exponential-backoff retransmission, reconnect after connection resets,
// and peer-loss detection when a neighbor stops answering. Backends:
//
//   LocalTransport (this file)  in-process mailboxes — the deterministic
//                               reference backend for protocol tests and
//                               the loopback harness;
//   smp::ShmTransport           POSIX shared-memory rings between forked
//                               OS processes (smp/shm_transport.hpp);
//   smp::TcpTransport           TCP sockets across processes or hosts
//                               (smp/tcp_transport.hpp).
//
// A given (partitioning, strategy) schedule delivers bit-identical halo
// values on every backend: the frame protocol rejects anything the wire
// mangled and retransmits until the original payload lands (or the peer
// is declared lost, which surfaces as TransportError instead of a hang).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/types.hpp"

namespace columbia::core {

enum class TransportBackend { Local = 0, Shm, Tcp };
const char* transport_backend_name(TransportBackend b);

/// Outcome of one bounded-deadline receive. PeerGone is stronger than
/// Closed: the backend can prove the peer PROCESS exited (its pre-forked
/// listener refuses connections), not merely that one connection died.
enum class RecvOutcome { Ok, Timeout, Reset, Closed, PeerGone };

/// Per-endpoint failure/recovery ledger; mirrored into the obs counters
/// resil.transport.{timeout,retransmit,reconnect,peer_lost,heartbeat,
/// exit_fallback} and, under a process-group launcher, into the group's
/// shared control block. ExitFallback counts group exits that ran out the
/// quiet window instead of completing the Fin handshake (leave_group).
enum class TransportCounter : int {
  Timeout = 0,
  Retransmit,
  Reconnect,
  PeerLost,
  Heartbeat,
  ExitFallback,
};
inline constexpr int kNumTransportCounters = 6;
const char* transport_counter_name(TransportCounter c);

struct TransportCounters {
  std::uint64_t v[kNumTransportCounters] = {};
  std::uint64_t timeouts() const { return v[0]; }
  std::uint64_t retransmits() const { return v[1]; }
  std::uint64_t reconnects() const { return v[2]; }
  std::uint64_t peer_lost() const { return v[3]; }
  std::uint64_t heartbeats() const { return v[4]; }
  std::uint64_t exit_fallbacks() const { return v[5]; }
};

/// Thrown when the wire protocol cannot make progress: the retransmit
/// budget is exhausted (DeliveryFailed) or the peer stopped answering
/// entirely (PeerLost). Never thrown for faults the protocol absorbs
/// (corruption, drops, resets, delays) — those only cost retransmissions.
class TransportError : public std::runtime_error {
 public:
  enum class Kind { DeliveryFailed, PeerLost };
  TransportError(Kind kind, int peer, const std::string& what)
      : std::runtime_error(what), kind_(kind), peer_(peer) {}
  Kind kind() const { return kind_; }
  int peer() const { return peer_; }

 private:
  Kind kind_;
  int peer_;
};

// --- Wire datagram codec ----------------------------------------------------
//
// Every datagram is a fixed header plus (for Data) the checksummed real_t
// frame produced by resil::frame_payload_into, verbatim. The header lets
// receivers match retransmitted attempts, discard stale duplicates, and
// re-acknowledge Data whose Ack was lost, all per (exchange seq, channel).

enum class WireType : std::uint16_t {
  Data = 1,
  Ack = 2,
  Nak = 3,
  // Clock-synchronization side channel (core/clock_sync.hpp): a Ping
  // carries the client's send timestamp, the Pong echoes it plus the
  // server's receive/transmit stamps. Both ride the ordinary datagram
  // plane; exchange recv loops that are not expecting them skip them the
  // same way they skip stale Ack/Nak control.
  Ping = 4,
  Pong = 5,
  // Group-exit handshake (leave_group): "my whole schedule is complete".
  // seq carries the sender's exchange sequence, channel its group rank.
  Fin = 6,
};

struct WireHeader {
  std::uint64_t seq = 0;       // endpoint exchange sequence number
  std::uint32_t channel = 0;   // plan channel index (global order)
  std::uint16_t type = 0;      // WireType
  std::uint16_t attempt = 0;   // sender attempt counter
};
inline constexpr std::size_t kWireHeaderBytes = 16;

/// Serializes header + frame into `out` (resized; capacity reused).
void encode_wire(const WireHeader& h, std::span<const real_t> frame,
                 std::vector<std::uint8_t>& out);

/// False when the datagram is shorter than a header or its frame bytes do
/// not form whole real_t words (a mangled length never crashes decode —
/// the frame checksum decides whether the payload survives).
bool decode_wire(std::span<const std::uint8_t> datagram, WireHeader& h,
                 std::vector<real_t>& frame);

/// One member's endpoint onto the group wire. Datagram semantics: send()
/// enqueues a whole message without waiting for the receiver; recv()
/// dequeues the next message from one peer, waiting at most deadline_ms.
/// Implementations are used from a single thread per endpoint (the plan's
/// exchange loop); heartbeat side-channels run on their own threads and
/// must not touch the data plane.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual TransportBackend backend() const = 0;
  const char* name() const { return transport_backend_name(backend()); }
  virtual int group_rank() const = 0;
  virtual int group_size() const = 0;

  /// False on connection failure (the caller counts a reconnect and
  /// retries after reconnect()); a full outgoing queue is reported as
  /// false too and resolves the same way a lost message does.
  virtual bool send(int to, std::span<const std::uint8_t> datagram) = 0;
  virtual RecvOutcome recv(int from, std::vector<std::uint8_t>& datagram,
                           int deadline_ms) = 0;

  /// Re-establishes the link to `peer` after a Reset/send failure. True
  /// when the link is usable again (backends without connections are
  /// always usable).
  virtual bool reconnect(int peer) {
    (void)peer;
    return true;
  }

  /// Injected connection reset (COLUMBIA_FAULTS conn_reset): tear the
  /// peer link down the way the real failure would. No-op for backends
  /// without connections.
  virtual void inject_reset(int peer) { (void)peer; }

  /// Injected peer hang (COLUMBIA_FAULTS peer_hang): this member stops
  /// responding — data plane AND heartbeats — without exiting, so only an
  /// external failure detector (the process-group watchdog) can reclaim
  /// it. The default implementation notifies the hang hook and sleeps
  /// forever; LocalTransport throws instead so single-process tests can
  /// observe the condition.
  virtual void enter_hang();

  /// Bumps a failure/recovery counter: the endpoint ledger, the obs
  /// counter, and the external sink (process-group control block) when
  /// one is attached.
  void count(TransportCounter c, std::uint64_t n = 1);
  const TransportCounters& counters() const { return counters_; }

  using CounterSink = std::function<void(TransportCounter, std::uint64_t)>;
  void set_counter_sink(CounterSink sink) { sink_ = std::move(sink); }
  /// Invoked once when enter_hang begins (stops the heartbeat pulse).
  void set_hang_hook(std::function<void()> hook) { hang_hook_ = std::move(hook); }

  /// Endpoint-wide exchange sequence. Every ExchangePlan on this endpoint
  /// draws from the same counter (one draw per post), so (seq, channel)
  /// names one exchange instance of one plan: frames from different plans
  /// sharing the endpoint — per-level halo plans plus inter-level transfer
  /// plans — can never alias, and "stale duplicate" vs "future frame"
  /// comparisons stay meaningful across plans. The SPMD schedule (every
  /// member posts the same plans in the same order) keeps the counter
  /// identical on all members without any coordination.
  std::uint64_t take_exchange_seq() { return exchange_seq_++; }
  std::uint64_t next_exchange_seq() const { return exchange_seq_; }

  /// One Data frame that arrived while the receiver was completing a
  /// different (seq, channel) — parked here, deliberately un-acked, until
  /// the exchange that owns it consumes it (and only then acks). Lives on
  /// the endpoint rather than a plan for the same reason as the sequence
  /// counter: with several plans multiplexed over one endpoint, a frame
  /// routinely arrives while another plan is mid-protocol, and the owning
  /// plan must still find it. Entries recycle their capacity (no
  /// steady-state allocation once every message size has been seen).
  struct StashedFrame {
    bool full = false;
    int peer = -1;
    WireHeader header{};
    std::vector<real_t> frame;
  };
  std::vector<StashedFrame>& frame_stash() { return frame_stash_; }

  /// Ack addressed to a send this endpoint has in flight but is not
  /// currently waiting on. post() launches every first attempt up front,
  /// so a peer can ack channels far ahead of the sender's own protocol
  /// position; dropping those acks (they look like stale control) would
  /// cost a full deadline timeout + retransmit per channel — and a member
  /// recovering many channels serially that way can starve a peer's
  /// retransmit budget. Recorded here instead; wire_send consults the
  /// ledger before waiting. Same endpoint-wide scope as the frame stash.
  struct AckRecord {
    bool full = false;
    int peer = -1;
    std::uint64_t seq = 0;
    std::uint32_t channel = 0;
  };
  std::vector<AckRecord>& ack_ledger() { return ack_ledger_; }

  /// Fin ledger: which peers have announced a complete schedule. A Fin can
  /// land inside any receive loop (a plan's ack wait, a stray sweep), so
  /// it is recorded here, endpoint-wide like the ack ledger, for
  /// leave_group to find.
  void record_fin(int peer);
  bool fin_received(int peer) const {
    return std::size_t(peer) < fin_from_.size() &&
           fin_from_[std::size_t(peer)] != 0;
  }

 protected:
  void notify_hang() {
    if (hang_hook_) hang_hook_();
  }

 private:
  TransportCounters counters_;
  CounterSink sink_;
  std::function<void()> hang_hook_;
  std::uint64_t exchange_seq_ = 0;
  std::vector<StashedFrame> frame_stash_;
  std::vector<AckRecord> ack_ledger_;
  std::vector<std::uint8_t> fin_from_;  // indexed by peer rank
};

// --- Group exit ---------------------------------------------------------------

/// How a member left the group (leave_group).
enum class GroupExit {
  Alone,      // single-member group: nothing to hand over
  Handshake,  // every peer's Fin (or proven exit) arrived
  Fallback,   // the quiet window ran out first (a Fin was destroyed)
};

/// Quiet window after which leave_group gives up waiting for Fins.
inline constexpr int kExitQuietMs = 300;

/// The member's last act on the wire, called once its whole schedule is
/// complete (every send acked, every receive delivered) — one call per
/// endpoint, serving every plan multiplexed over it. Sends Fin to every
/// peer, then keeps re-acking duplicate Data (re-sending its Fin with the
/// Ack, since a peer still retransmitting may have lost it) and answering
/// teardown clock-sync Pings until it holds a Fin — or a PeerGone — from
/// every peer. Holding every Fin proves no peer will ever need this member
/// again, so it may exit at once. Only if `quiet_ms` pass with no traffic
/// (a Fin destroyed in flight) does it leave anyway, counting
/// TransportCounter::ExitFallback.
GroupExit leave_group(Transport& t, int quiet_ms = kExitQuietMs);

// --- In-process reference backend -------------------------------------------

/// Datagram queues between N in-process members: one mutex/cv-protected
/// deque per directed pair. Deterministic and dependency-free — the wire
/// protocol's unit-test backend. Members may live on one thread (the
/// loopback harness drives both endpoints of every channel inline) or one
/// thread each.
class LocalGroup {
 public:
  explicit LocalGroup(int size);

  int size() const { return size_; }

  /// Endpoint for member `rank`; the group must outlive it.
  std::unique_ptr<Transport> endpoint(int rank);

  /// Implementation detail of the endpoints (public because the concrete
  /// endpoint type lives in transport.cpp's anonymous namespace).
  struct Pair {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::vector<std::uint8_t>> q;
  };
  Pair& pair(int from, int to) {
    return pairs_[std::size_t(from) * std::size_t(size_) + std::size_t(to)];
  }

 private:
  int size_;
  std::vector<Pair> pairs_;  // indexed [from * size + to]
};

}  // namespace columbia::core
