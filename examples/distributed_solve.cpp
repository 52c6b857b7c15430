// Distributed guarded RANS solve over a pluggable transport (paper
// Figs. 16-18: the same solve over different interconnects).
//
// The fine level is owner-computes (paper Sec. III): level 0 is split into
// line-respecting partitions, and each group member runs the fine
// residual, the smoother blocks and the line sweeps on its own nodes only
// (nsu3d::FineGather, Nsu3dSolver::own_fine_nodes). One wire exchange
// carries every fine row a member does not own — the state after each
// fine smoothing step, the residual before the FAS restriction and the
// residual norm read it — so the foreign rows of the solve come from the
// wire alone. Coarse levels, transfers, the norm, forces, the guard and
// checkpoints run on the full arrays, identical on every member. Owned
// rows are bitwise the single-process rows, and the wire protocol
// (checksummed frames, deadline timeouts, bounded retransmit) delivers
// them unchanged, so the residual/CL/CD history written by --history
// matches the single-process solve byte for byte across threads, shm and
// tcp, any rank count, both strategies and both overlap modes — with or
// without injected transport faults.
//
//   --backend threads|shm|tcp  wire layer (default threads)
//   --ranks N                  group size (default 2)
//   --strategy t2t|master      Fig. 7 exchange strategy (default t2t)
//   --tpp N                    threads per process for master (default 2)
//   --cycles N --orders X      convergence budget (default 40, 3 orders)
//   --checkpoint PATH          durable checkpoint; rank 0 writes, every
//                              rank resumes from it after a relaunch
//   --history PATH             rank 0 writes residuals + CL/CD (%.17g)
//   --faults SPEC              arm COLUMBIA_FAULTS fault injection
//   --faults-help              print the COLUMBIA_FAULTS grammar and exit
//   --relaunch N               recovery budget for dead/hung ranks
//   --overlap 0|1              split each gather into post()/finish() so
//                              the residual gather flies under the state
//                              restriction (default 1)
//   --trace PATH               record solver + halo.xchg spans and write a
//                              Chrome trace (feed to `columbia_report comm`
//                              for the per-level overlap/claimed table).
//                              Works on all three backends: the forked
//                              backends arm a per-rank flight recorder
//                              (durable PATH.shards.rank<r>.round<k>.jsonl
//                              telemetry shards, clock-synced against
//                              member 0), and the launcher merges the
//                              gathered shards into one clock-aligned
//                              multi-rank trace at PATH
//   --jsonl PATH               convergence JSONL sink; forked ranks write
//                              per-rank suffixed files (conv.rank0.jsonl),
//                              the threads backend one combined file
//
// Recovery semantics: a rank that dies (conn_reset exhausting the retry
// budget, a crash) or hangs (peer_hang silencing its heartbeat) fails its
// round; the launcher kills the group, strips peer_hang (the relaunch IS
// the replacement node), re-forks, and everyone resumes from the last
// durable checkpoint. Status "recovered" on success after >= 1 relaunch.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/exchange_plan.hpp"
#include "core/transport.hpp"
#include "mesh/builders.hpp"
#include "nsu3d/partitioned.hpp"
#include "nsu3d/solver.hpp"
#include "obs/obs.hpp"
#include "obs/shard.hpp"
#include "obs/telemetry.hpp"
#include "resil/faults.hpp"
#include "resil/guard.hpp"
#include "smp/pool.hpp"
#include "smp/process_group.hpp"
#include "support/durable.hpp"

using namespace columbia;

namespace {

struct Cli {
  std::string backend = "threads";
  int ranks = 2;
  core::ExchangeStrategy strategy = core::ExchangeStrategy::ThreadToThread;
  int tpp = 2;
  int cycles = 40;
  double orders = 3.0;
  std::string checkpoint;
  std::string history;
  std::string faults;
  int relaunch = 2;
  bool overlap = true;
  std::string trace;
  std::string jsonl;
};

void usage() {
  std::printf(
      "distributed_solve: owner-computes guarded solve over a transport\n"
      "  --backend threads|shm|tcp  --ranks N  --strategy t2t|master\n"
      "  --tpp N  --cycles N  --orders X  --checkpoint PATH\n"
      "  --history PATH  --faults SPEC  --relaunch N\n"
      "  --overlap 0|1\n"
      "  --trace PATH   Chrome trace of the spans, any backend (forked\n"
      "                 ranks record durable per-rank telemetry shards,\n"
      "                 clock-synced and merged into PATH by the launcher)\n"
      "  --jsonl PATH   convergence JSONL (per-rank suffixed when forked)\n"
      "  --faults-help              print the COLUMBIA_FAULTS grammar\n");
}

int solve_rank(int rank, core::Transport& t, const Cli& cli) {
  // Forked ranks each own a process-wide sink: suffix it per rank so two
  // ranks never truncate each other's convergence stream. (The threads
  // backend shares one process; main() opens its single combined sink.)
  if (!cli.jsonl.empty() && cli.backend != "threads")
    obs::open_jsonl(obs::rank_suffixed_path(cli.jsonl, rank));

  mesh::WingMeshSpec spec;
  spec.n_wrap = 24;
  spec.n_span = 4;
  spec.n_normal = 10;
  spec.wall_spacing = 1e-4;
  const mesh::UnstructuredMesh wing = mesh::make_wing_mesh(spec);

  euler::FlowConditions conditions;
  conditions.mach = 0.75;
  conditions.alpha_deg = 0.0;
  conditions.reynolds = 3.0e6;

  nsu3d::Nsu3dOptions opt;
  opt.mg_levels = 3;
  opt.cycle = nsu3d::CycleType::W;
  opt.smoother = nsu3d::SmootherKind::LineImplicit;
  nsu3d::Nsu3dSolver solver(wing, conditions, opt);

  core::ExchangePlanOptions xopt;
  xopt.strategy = cli.strategy;
  xopt.threads_per_process =
      cli.strategy == core::ExchangeStrategy::MasterThread ? cli.tpp : 1;
  xopt.level = 0;
  xopt.transport = &t;
  xopt.wire.deadline_ms = 200;
  xopt.wire.max_attempts = 8;
  xopt.wire.backoff_base_ms = 1;
  xopt.wire.backoff_max_ms = 8;
  xopt.wire.loopback_self = t.group_size() == 1;

  // Owner-computes fine level: this member computes its line-respecting
  // parts of level 0, and one gather plan brings in every other row.
  nsu3d::FineGather gather(solver.level(0), xopt, cli.overlap);
  solver.own_fine_nodes(gather.owned(),
                        [&](std::vector<nsu3d::State>& rows,
                            nsu3d::GatherPhase phase) {
                          gather.complete(rows, phase);
                        });
  if (rank == 0) {
    std::size_t mine = 0;
    for (const char o : gather.owned()) mine += o != 0;
    std::printf("owner-computes: level 0 in %lld parts, member 0 owns %zu "
                "of %zu nodes\n",
                (long long)gather.num_parts(), mine, gather.owned().size());
  }

  resil::GuardCallbacks cb;
  cb.solver = "nsu3d";
  cb.residual_norm = [&] { return solver.residual_norm(); };
  // guarded_solve drives cycles itself (MultigridDriver::solve's emitting
  // loop is bypassed), so convergence telemetry is emitted here. Read-only
  // on the solve: histories stay bit-identical with the sink on or off.
  int telem_cycle = 0;
  cb.run_cycle = [&] {
    const real_t r = solver.run_cycle();
    if (obs::telemetry_active()) {
      obs::CycleRecord rec;
      rec.solver = "nsu3d";
      rec.cycle = ++telem_cycle;
      rec.residual = double(r);
      obs::emit_cycle(rec);
    }
    return r;
  };
  cb.snapshot = [&](std::uint64_t cycle, std::span<const real_t> history) {
    return solver.make_checkpoint(cycle, history);
  };
  cb.restore = [&](const resil::Checkpoint& c) { solver.restore_checkpoint(c); };

  resil::GuardedSolveOptions gopt;
  gopt.checkpoint_path = cli.checkpoint;
  gopt.checkpoint_interval = 5;
  gopt.resume = true;
  gopt.checkpoint_write = rank == 0;  // single writer, shared resume file
  const resil::GuardedSolveResult gr =
      resil::guarded_solve(gopt, cli.cycles, real_t(cli.orders), cb);
  if (gr.outcome == resil::SolveOutcome::Failed) return 3;
  // Fin handshake: stay on the wire (re-acking duplicate frames) until
  // every peer has finished too, so a peer whose final Ack was destroyed
  // (conn_reset) is not stranded retransmitting to an exited rank.
  core::leave_group(t);

  if (rank == 0) {
    const nsu3d::Forces f = solver.integrate_forces();
    std::printf("[rank 0] solve %s: %.3e -> %.3e in %zu cycles, "
                "CL=%.4f CD=%.4f%s\n",
                resil::outcome_name(gr.outcome), double(gr.history.front()),
                double(gr.history.back()), gr.history.size() - 1,
                double(f.cl), double(f.cd),
                gr.resumed ? " (resumed from checkpoint)" : "");
    if (!cli.history.empty()) {
      // Byte-stable history artifact: the soak script cmp's this file
      // across backends, so it must not mention the backend or strategy.
      std::string out;
      char buf[64];
      for (const real_t r : gr.history) {
        std::snprintf(buf, sizeof(buf), "%.17g\n", double(r));
        out += buf;
      }
      std::snprintf(buf, sizeof(buf), "CL %.17g\nCD %.17g\n", double(f.cl),
                    double(f.cd));
      out += buf;
      if (!support::durable_write_file(cli.history, out)) {
        std::fprintf(stderr, "history: cannot write %s\n",
                     cli.history.c_str());
        return 4;
      }
    }
  }
  return 0;
}

void print_group(const char* status, const core::TransportCounters& c,
                 int relaunches) {
  std::printf("status: %s (relaunches=%d)\n", status, relaunches);
  std::printf("resil.transport: timeout=%llu retransmit=%llu reconnect=%llu "
              "peer_lost=%llu heartbeat=%llu exit_fallback=%llu\n",
              (unsigned long long)c.timeouts(),
              (unsigned long long)c.retransmits(),
              (unsigned long long)c.reconnects(),
              (unsigned long long)c.peer_lost(),
              (unsigned long long)c.heartbeats(),
              (unsigned long long)c.exit_fallbacks());
}

/// In-process backend: one std::thread per rank over LocalGroup mailboxes,
/// with the same relaunch-on-failure loop ProcessGroup::run_recovering
/// applies to forked ranks. peer_hang on this backend throws instead of
/// hanging (the LocalTransport hang hook), so recovery is still exercised.
int run_threads(const Cli& cli) {
  // Rank threads each drive the solver kernels themselves; a 1-thread pool
  // takes the inline serial path, which is safe from concurrent callers
  // and bit-identical to any other pool size.
  if (cli.ranks > 1) smp::ThreadPool::global().resize(1);
  core::TransportCounters total;
  int relaunches = 0;
  bool ok = false;
  for (int round = 0; round <= cli.relaunch && !ok; ++round) {
    if (round > 0) {
      resil::FaultInjector& inj = resil::FaultInjector::global();
      resil::FaultSpec spec = inj.spec();
      spec.rate[std::size_t(resil::FaultKind::PeerHang)] = 0.0;
      inj.configure(spec);
      ++relaunches;
    }
    core::LocalGroup group(cli.ranks);
    std::vector<std::unique_ptr<core::Transport>> eps;
    for (int r = 0; r < cli.ranks; ++r) eps.push_back(group.endpoint(r));
    std::vector<int> codes(std::size_t(cli.ranks), 0);
    std::vector<std::thread> threads;
    for (int r = 0; r < cli.ranks; ++r)
      threads.emplace_back([&, r] {
        try {
          codes[std::size_t(r)] = solve_rank(r, *eps[std::size_t(r)], cli);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "[rank %d] uncaught: %s\n", r, e.what());
          codes[std::size_t(r)] = smp::ProcessGroup::kExitUncaught;
        }
      });
    for (auto& th : threads) th.join();
    ok = true;
    for (const int c : codes) ok = ok && c == 0;
    for (const auto& ep : eps)
      for (int c = 0; c < core::kNumTransportCounters; ++c)
        total.v[c] += ep->counters().v[c];
  }
  print_group(!ok ? "failed" : relaunches > 0 ? "recovered" : "ok", total,
              relaunches);
  return ok ? 0 : 1;
}

int run_processes(const Cli& cli, smp::GroupBackend backend) {
  smp::ProcessGroupOptions opts;
  opts.ranks = cli.ranks;
  opts.backend = backend;
  // --trace on a forked backend: every rank records a durable telemetry
  // shard next to the requested trace path; the merge below builds the
  // single clock-aligned Chrome trace the flag promises.
  if (!cli.trace.empty()) opts.telemetry_base = cli.trace + ".shards";
  int relaunches = 0;
  const smp::GroupResult res = smp::ProcessGroup::run_recovering(
      opts, [&](int rank, core::Transport& t) { return solve_rank(rank, t, cli); },
      cli.relaunch, &relaunches);
  for (std::size_t r = 0; r < res.members.size(); ++r) {
    const smp::MemberReport& m = res.members[r];
    std::printf("[rank %zu] %s exit=%d heartbeats=%llu\n", r,
                m.hung ? "hung" : m.signaled ? "signaled" : "exited",
                m.exit_code, (unsigned long long)m.heartbeats);
  }
  print_group(!res.ok ? "failed" : relaunches > 0 ? "recovered" : "ok",
              res.total, relaunches);

  if (!cli.trace.empty()) {
    std::vector<obs::TelemetryShard> shards;
    for (const std::string& path : res.shards) {
      obs::TelemetryShard s;
      std::string err;
      if (obs::read_shard_file(path, s, &err))
        shards.push_back(std::move(s));
      else
        std::fprintf(stderr, "trace: skipping shard %s: %s\n", path.c_str(),
                     err.c_str());
    }
    const obs::MergedTelemetry merged = obs::merge_shards(std::move(shards));
    for (const std::string& w : merged.warnings)
      std::fprintf(stderr, "trace: warning: %s\n", w.c_str());
    if (obs::write_merged_chrome_trace_file(cli.trace, merged))
      std::printf("trace: %zu events from %zu shards (%d ranks, %d rounds) "
                  "-> %s\n",
                  merged.events.size(), merged.shards.size(), merged.ranks,
                  merged.rounds, cli.trace.c_str());
    else
      std::fprintf(stderr, "trace: cannot write %s\n", cli.trace.c_str());
  }
  return res.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--faults-help") == 0) {
      std::puts(resil::fault_grammar_help().c_str());
      return 0;
    }
    if (std::strcmp(argv[i], "--help") == 0) {
      usage();
      return 0;
    }
  }
  for (int i = 1; i + 1 < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--backend") == 0) cli.backend = argv[i + 1];
    if (std::strcmp(a, "--ranks") == 0) cli.ranks = std::atoi(argv[i + 1]);
    if (std::strcmp(a, "--strategy") == 0) {
      if (std::strcmp(argv[i + 1], "master") == 0)
        cli.strategy = core::ExchangeStrategy::MasterThread;
      else if (std::strcmp(argv[i + 1], "t2t") != 0) {
        std::fprintf(stderr, "unknown --strategy '%s'\n", argv[i + 1]);
        return 1;
      }
    }
    if (std::strcmp(a, "--tpp") == 0) cli.tpp = std::atoi(argv[i + 1]);
    if (std::strcmp(a, "--cycles") == 0) cli.cycles = std::atoi(argv[i + 1]);
    if (std::strcmp(a, "--orders") == 0) cli.orders = std::atof(argv[i + 1]);
    if (std::strcmp(a, "--checkpoint") == 0) cli.checkpoint = argv[i + 1];
    if (std::strcmp(a, "--history") == 0) cli.history = argv[i + 1];
    if (std::strcmp(a, "--faults") == 0) cli.faults = argv[i + 1];
    if (std::strcmp(a, "--relaunch") == 0) cli.relaunch = std::atoi(argv[i + 1]);
    if (std::strcmp(a, "--overlap") == 0) cli.overlap = std::atoi(argv[i + 1]) != 0;
    if (std::strcmp(a, "--trace") == 0) cli.trace = argv[i + 1];
    if (std::strcmp(a, "--jsonl") == 0) cli.jsonl = argv[i + 1];
  }
  if (cli.ranks < 1 || cli.tpp < 1) {
    std::fprintf(stderr, "bad --ranks/--tpp (both must be >= 1)\n");
    return 1;
  }
  if (!cli.faults.empty()) {
    try {
      resil::FaultInjector::global().configure(
          resil::parse_fault_spec(cli.faults));
      std::printf("faults: armed with '%s'\n", cli.faults.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "faults: %s\n", e.what());
      return 1;
    }
  }

  std::printf(
      "distributed_solve: backend=%s ranks=%d strategy=%s overlap=%d\n",
      cli.backend.c_str(), cli.ranks,
      cli.strategy == core::ExchangeStrategy::MasterThread ? "master" : "t2t",
      cli.overlap ? 1 : 0);
  if (!cli.trace.empty() || !cli.jsonl.empty()) obs::set_enabled(true);
  if (!cli.jsonl.empty() && cli.backend == "threads" &&
      !obs::open_jsonl(cli.jsonl))
    std::fprintf(stderr, "jsonl: cannot write %s\n", cli.jsonl.c_str());
  // Fork discipline: the process backends fork BEFORE any solver work has
  // touched the global thread pool; children build their own pools.
  int rc = 1;
  if (cli.backend == "threads") {
    rc = run_threads(cli);
  } else if (cli.backend == "shm") {
    rc = run_processes(cli, smp::GroupBackend::Shm);
  } else if (cli.backend == "tcp") {
    rc = run_processes(cli, smp::GroupBackend::Tcp);
  } else {
    std::fprintf(stderr, "unknown --backend '%s'\n", cli.backend.c_str());
    usage();
    return 1;
  }
  // The forked backends already wrote the merged multi-rank trace in
  // run_processes; this in-process export covers the threads backend.
  if (!cli.trace.empty() && cli.backend == "threads") {
    smp::ThreadPool::global().publish_stats();
    if (obs::write_chrome_trace_file(cli.trace))
      std::printf("trace: %zu events -> %s\n", obs::num_trace_events(),
                  cli.trace.c_str());
    else
      std::fprintf(stderr, "trace: cannot write %s\n", cli.trace.c_str());
  }
  return rc;
}
