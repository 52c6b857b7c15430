#include "smp/process_group.hpp"

#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

#include "core/clock_sync.hpp"
#include "obs/shard.hpp"
#include "resil/faults.hpp"
#include "smp/shm_transport.hpp"
#include "smp/tcp_transport.hpp"
#include "support/assert.hpp"

namespace columbia::smp {

namespace {

using Clock = std::chrono::steady_clock;

/// Per-rank slot in the shared control block. The child owns the writes;
/// the parent only reads (exception: nothing — kills go through signals).
struct alignas(64) MemberControl {
  std::atomic<std::uint64_t> heartbeat;
  std::atomic<std::uint64_t> counters[core::kNumTransportCounters];
};

struct ControlBlock {
  static ControlBlock* map(int ranks) {
    const std::size_t bytes = sizeof(MemberControl) * std::size_t(ranks);
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    COLUMBIA_REQUIRE(p != MAP_FAILED);
    auto* slots = static_cast<MemberControl*>(p);
    for (int r = 0; r < ranks; ++r) {
      MemberControl* m = new (slots + r) MemberControl;
      m->heartbeat.store(0, std::memory_order_relaxed);
      for (auto& c : m->counters) c.store(0, std::memory_order_relaxed);
    }
    return reinterpret_cast<ControlBlock*>(slots);
  }
  static void unmap(ControlBlock* cb, int ranks) {
    ::munmap(cb, sizeof(MemberControl) * std::size_t(ranks));
  }
  MemberControl& member(int r) {
    return reinterpret_cast<MemberControl*>(this)[r];
  }
};

/// Child-side heartbeat pulse. Runs on its own thread; the injected
/// peer_hang stops it through the transport's hang hook, which is exactly
/// the point — a hung rank goes silent on every plane at once.
class HeartbeatPulse {
 public:
  /// The first pulse is sent here, on the rank's own thread: a rank whose
  /// body finished before the pulse thread was first scheduled used to
  /// report no heartbeat at all.
  HeartbeatPulse(MemberControl& slot, int period_ms)
      : slot_(slot), period_ms_(period_ms) {
    slot_.heartbeat.fetch_add(1, std::memory_order_relaxed);
    thread_ = std::thread([this] {
      while (true) {
        std::this_thread::sleep_for(std::chrono::milliseconds(period_ms_));
        if (stop_.load(std::memory_order_relaxed)) break;
        slot_.heartbeat.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  /// Stops the pulse without joining (enter_hang never returns, so the
  /// hook must not block).
  void silence() { stop_.store(true, std::memory_order_relaxed); }
  ~HeartbeatPulse() {
    silence();
    if (thread_.joinable()) thread_.join();
  }

 private:
  MemberControl& slot_;
  int period_ms_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

obs::ShardClock to_shard_clock(const core::ClockEstimate& est) {
  return obs::ShardClock{est.synced, est.offset_ns, est.rtt_ns, est.samples};
}

[[noreturn]] void child_main(int rank, core::Transport& t,
                             MemberControl& slot,
                             const ProcessGroupOptions& opts,
                             const ProcessGroup::Body& body) {
  HeartbeatPulse pulse(slot, opts.heartbeat_ms);
  t.set_hang_hook([&pulse] { pulse.silence(); });
  t.set_counter_sink([&slot](core::TransportCounter c, std::uint64_t n) {
    slot.counters[std::size_t(c)].fetch_add(n, std::memory_order_relaxed);
  });
  std::unique_ptr<obs::FlightRecorder> recorder;
  if (!opts.telemetry_base.empty()) {
    obs::ShardOptions so;
    so.path =
        obs::shard_file_path(opts.telemetry_base, rank, opts.telemetry_round);
    so.rank = rank;
    so.ranks = opts.ranks;
    so.round = opts.telemetry_round;
    so.backend = group_backend_name(opts.backend);
    // Render from the injector this child inherited at fork time:
    // run_recovering strips peer_hang before relaunching, and the shard
    // must stamp what this round actually ran with.
    so.fault_spec =
        resil::render_fault_spec(resil::FaultInjector::global().spec());
    recorder = std::make_unique<obs::FlightRecorder>(so);
    recorder->set_clock(to_shard_clock(core::sync_group_clock(t)));
  }
  int code = ProcessGroup::kExitUncaught;
  try {
    code = body(rank, t);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[rank %d] uncaught: %s\n", rank, e.what());
  } catch (...) {
    std::fprintf(stderr, "[rank %d] uncaught non-exception\n", rank);
  }
  if (recorder) {
    // Teardown re-sync bounds clock drift over the run; with a dead peer
    // it burns its budget and the shard keeps the start estimate.
    recorder->finalize(to_shard_clock(core::sync_group_clock(t)));
  }
  pulse.silence();
  std::fflush(nullptr);
  // _exit, not exit: never run the parent's atexit handlers or flush its
  // inherited stream state twice.
  ::_exit(code);
}

}  // namespace

const char* group_backend_name(GroupBackend b) {
  return b == GroupBackend::Shm ? "shm" : "tcp";
}

int GroupResult::first_failure_exit() const {
  for (const MemberReport& m : members)
    if (m.exited && m.exit_code != 0) return m.exit_code;
  return 0;
}

GroupResult ProcessGroup::run(const ProcessGroupOptions& opts,
                              const Body& body) {
  COLUMBIA_REQUIRE(opts.ranks >= 1);
  COLUMBIA_REQUIRE(opts.heartbeat_ms >= 1);
  COLUMBIA_REQUIRE(opts.stall_ms > opts.heartbeat_ms);

  ControlBlock* cb = ControlBlock::map(opts.ranks);
  // Fabric before fork: children inherit the mapping / the listeners.
  std::unique_ptr<ShmGroup> shm;
  std::unique_ptr<TcpGroup> tcp;
  if (opts.backend == GroupBackend::Shm)
    shm = std::make_unique<ShmGroup>(opts.ranks,
                                     ShmGroupOptions{opts.shm_ring_bytes});
  else
    tcp = std::make_unique<TcpGroup>(opts.ranks);

  std::vector<pid_t> pids(std::size_t(opts.ranks), -1);
  for (int r = 0; r < opts.ranks; ++r) {
    std::fflush(nullptr);  // no buffered bytes duplicated into children
    const pid_t pid = ::fork();
    COLUMBIA_REQUIRE(pid >= 0);
    if (pid == 0) {
      std::unique_ptr<core::Transport> t =
          shm ? shm->endpoint(r) : tcp->endpoint(r);
      child_main(r, *t, cb->member(r), opts, body);
    }
    pids[std::size_t(r)] = pid;
  }
  if (tcp) tcp.reset();  // parent holds no listeners; children own theirs

  GroupResult res;
  res.members.resize(std::size_t(opts.ranks));

  // Supervision loop: reap exits, watch heartbeat freshness.
  const auto start = Clock::now();
  std::vector<std::uint64_t> last_beat(std::size_t(opts.ranks), 0);
  std::vector<Clock::time_point> last_change(std::size_t(opts.ranks), start);
  int live = opts.ranks;
  bool group_killed = false;
  while (live > 0) {
    for (int r = 0; r < opts.ranks; ++r) {
      MemberReport& m = res.members[std::size_t(r)];
      if (pids[std::size_t(r)] < 0) continue;
      int status = 0;
      const pid_t w = ::waitpid(pids[std::size_t(r)], &status, WNOHANG);
      if (w == pids[std::size_t(r)]) {
        if (WIFEXITED(status)) {
          m.exited = true;
          m.exit_code = WEXITSTATUS(status);
        } else if (WIFSIGNALED(status)) {
          m.signaled = true;
        }
        pids[std::size_t(r)] = -1;
        --live;
      }
    }
    if (live == 0) break;

    const auto now = Clock::now();
    bool kill_group = false;
    for (int r = 0; r < opts.ranks; ++r) {
      if (pids[std::size_t(r)] < 0) continue;
      const std::uint64_t beat =
          cb->member(r).heartbeat.load(std::memory_order_relaxed);
      if (beat != last_beat[std::size_t(r)]) {
        last_beat[std::size_t(r)] = beat;
        last_change[std::size_t(r)] = now;
      } else if (now - last_change[std::size_t(r)] >
                 std::chrono::milliseconds(opts.stall_ms)) {
        res.members[std::size_t(r)].hung = true;
        res.hung = true;
        kill_group = true;
      }
    }
    if (opts.wall_timeout_ms > 0 &&
        now - start > std::chrono::milliseconds(opts.wall_timeout_ms)) {
      res.hung = true;
      kill_group = true;
    }
    if (kill_group && !group_killed) {
      // One dead/hung rank strands the survivors mid-protocol; take the
      // whole group down and let the recovery driver relaunch it.
      group_killed = true;
      for (int r = 0; r < opts.ranks; ++r)
        if (pids[std::size_t(r)] >= 0) ::kill(pids[std::size_t(r)], SIGKILL);
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min(opts.heartbeat_ms, 20)));
  }

  for (int r = 0; r < opts.ranks; ++r) {
    MemberReport& m = res.members[std::size_t(r)];
    m.heartbeats = cb->member(r).heartbeat.load(std::memory_order_relaxed);
    for (int c = 0; c < core::kNumTransportCounters; ++c)
      m.counters.v[c] =
          cb->member(r).counters[c].load(std::memory_order_relaxed);
    m.counters.v[std::size_t(core::TransportCounter::Heartbeat)] +=
        m.heartbeats;
    for (int c = 0; c < core::kNumTransportCounters; ++c)
      res.total.v[c] += m.counters.v[c];
  }
  res.ok = true;
  for (const MemberReport& m : res.members)
    if (!m.exited || m.exit_code != 0) res.ok = false;

  if (!opts.telemetry_base.empty()) {
    // Gather whatever shards made it to disk — a killed rank's truncated
    // shard is exactly the artifact the merger is built to accept.
    for (int r = 0; r < opts.ranks; ++r) {
      const std::string path =
          obs::shard_file_path(opts.telemetry_base, r, opts.telemetry_round);
      if (::access(path.c_str(), F_OK) == 0) res.shards.push_back(path);
    }
  }

  ControlBlock::unmap(cb, opts.ranks);
  return res;
}

GroupResult ProcessGroup::run_recovering(const ProcessGroupOptions& opts,
                                         const Body& body, int max_relaunches,
                                         int* relaunches_out) {
  int relaunches = 0;
  GroupResult res = run(opts, body);
  while (!res.ok && relaunches < max_relaunches) {
    // Replace the dead node: a deterministic peer_hang (site = rank) would
    // re-fire on every relaunch, so the recovered group runs without it.
    // Children inherit the injector state at fork time.
    resil::FaultInjector& inj = resil::FaultInjector::global();
    resil::FaultSpec spec = inj.spec();
    spec.rate[std::size_t(resil::FaultKind::PeerHang)] = 0.0;
    inj.configure(spec);
    ++relaunches;
    const core::TransportCounters carried = res.total;
    std::vector<std::string> shards_carried = std::move(res.shards);
    // Each relaunch is a new round: its shards get distinct paths and a
    // distinct round stamp, so the merged timeline keeps rounds apart.
    ProcessGroupOptions round_opts = opts;
    round_opts.telemetry_round = opts.telemetry_round + relaunches;
    res = run(round_opts, body);
    for (int c = 0; c < core::kNumTransportCounters; ++c)
      res.total.v[c] += carried.v[c];
    shards_carried.insert(shards_carried.end(), res.shards.begin(),
                          res.shards.end());
    res.shards = std::move(shards_carried);
  }
  if (relaunches_out != nullptr) *relaunches_out = relaunches;
  return res;
}

}  // namespace columbia::smp
