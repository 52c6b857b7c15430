// Owner-computes fine level over an in-process transport group
// (core::LocalGroup, one thread per member): each member computes the
// fine residual, smoother blocks and line sweeps of its own nodes only,
// and nsu3d::FineGather brings in every other fine row over the wire. The
// history, the final fine state and CL/CD must equal a single-process
// guarded solve bit for bit — for 2/3/4 members, both Fig. 7 strategies,
// both overlap modes, with halo faults armed, and through a state_nan
// rollback. A gather that runs the exchange but keeps the foreign rows
// stale must change the history: the wire's bytes carry the solve.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/exchange_plan.hpp"
#include "core/transport.hpp"
#include "mesh/builders.hpp"
#include "nsu3d/partitioned.hpp"
#include "nsu3d/solver.hpp"
#include "resil/faults.hpp"
#include "smp/pool.hpp"

namespace columbia {
namespace {

using core::ExchangeStrategy;

struct InjectorGuard {
  explicit InjectorGuard(const std::string& spec) {
    resil::FaultInjector::global().configure(resil::parse_fault_spec(spec));
  }
  ~InjectorGuard() { resil::FaultInjector::global().reset(); }
};

constexpr int kCycles = 8;

mesh::UnstructuredMesh small_wing() {
  mesh::WingMeshSpec spec;
  spec.n_wrap = 24;
  spec.n_span = 3;
  spec.n_normal = 10;
  spec.wall_spacing = 1e-4;
  return mesh::make_wing_mesh(spec);
}

euler::FlowConditions flow() {
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.reynolds = 3e6;
  return fc;
}

nsu3d::Nsu3dOptions options() {
  nsu3d::Nsu3dOptions opt;
  opt.mg_levels = 3;
  opt.cycle = nsu3d::CycleType::W;
  opt.smoother = nsu3d::SmootherKind::LineImplicit;
  return opt;
}

struct Outcome {
  resil::GuardedSolveResult result;
  std::vector<nsu3d::State> state;
  nsu3d::Forces forces;
  std::uint64_t retransmits = 0;
};

Outcome finish(nsu3d::Nsu3dSolver& s, resil::GuardedSolveResult r) {
  Outcome o;
  o.result = std::move(r);
  o.state.assign(s.solution().begin(), s.solution().end());
  o.forces = s.integrate_forces();
  return o;
}

Outcome serial(const mesh::UnstructuredMesh& m) {
  nsu3d::Nsu3dSolver s(m, flow(), options());
  return finish(s, s.solve_guarded(kCycles, 12));
}

struct Group {
  int ranks = 2;
  ExchangeStrategy strategy = ExchangeStrategy::ThreadToThread;
  int tpp = 2;
  bool overlap = true;
  /// Run every exchange into a copy, so the foreign rows stay stale.
  bool stale = false;
};

/// One guarded solve per member thread; each member runs on its own pool
/// (tpp threads under MasterThread, one otherwise).
std::vector<Outcome> run_group(const mesh::UnstructuredMesh& m,
                               const Group& g) {
  const bool master = g.strategy == ExchangeStrategy::MasterThread;
  core::LocalGroup group(g.ranks);
  std::vector<std::unique_ptr<core::Transport>> eps;
  for (int r = 0; r < g.ranks; ++r) eps.push_back(group.endpoint(r));
  std::vector<Outcome> out(std::size_t(g.ranks));
  std::vector<std::thread> threads;
  for (int r = 0; r < g.ranks; ++r)
    threads.emplace_back([&, r] {
      smp::ThreadPool pool(master ? g.tpp : 1);
      smp::ScopedPool bind(pool);
      core::Transport& t = *eps[std::size_t(r)];
      nsu3d::Nsu3dSolver s(m, flow(), options());
      core::ExchangePlanOptions xopt;
      xopt.strategy = g.strategy;
      xopt.threads_per_process = master ? g.tpp : 1;
      xopt.level = 0;
      xopt.transport = &t;
      xopt.wire.deadline_ms = 200;
      nsu3d::FineGather gather(s.level(0), xopt, g.overlap);
      std::vector<nsu3d::State> copy;
      s.own_fine_nodes(gather.owned(), [&](std::vector<nsu3d::State>& rows,
                                           nsu3d::GatherPhase phase) {
        if (!g.stale) return gather.complete(rows, phase);
        if (phase == nsu3d::GatherPhase::Post) copy = rows;
        gather.complete(copy, phase);
      });
      resil::GuardedSolveResult res = s.solve_guarded(kCycles, 12);
      core::leave_group(t);
      Outcome& o = out[std::size_t(r)];
      o = finish(s, std::move(res));
      o.retransmits = gather.plan().stats().retransmits;
    });
  for (std::thread& th : threads) th.join();
  return out;
}

void expect_serial(const Outcome& want, const std::vector<Outcome>& got,
                   const std::string& what) {
  for (std::size_t r = 0; r < got.size(); ++r) {
    SCOPED_TRACE(what + " member " + std::to_string(r));
    EXPECT_EQ(got[r].result.outcome, want.result.outcome);
    ASSERT_EQ(got[r].result.history, want.result.history);
    ASSERT_EQ(got[r].state, want.state);
    EXPECT_EQ(got[r].forces.cl, want.forces.cl);
    EXPECT_EQ(got[r].forces.cd, want.forces.cd);
  }
}

std::uint64_t retransmits(const std::vector<Outcome>& got) {
  std::uint64_t n = 0;
  for (const Outcome& o : got) n += o.retransmits;
  return n;
}

/// Both strategies over `ranks` members, clean and with halo faults armed.
void check_ranks(int ranks, bool overlap) {
  const auto m = small_wing();
  const Outcome want = serial(m);
  ASSERT_EQ(want.result.outcome, resil::SolveOutcome::Ok);
  ASSERT_EQ(want.result.history.size(), std::size_t(kCycles + 1));
  for (const ExchangeStrategy strat :
       {ExchangeStrategy::ThreadToThread, ExchangeStrategy::MasterThread}) {
    Group g;
    g.ranks = ranks;
    g.strategy = strat;
    g.overlap = overlap;
    const std::string what =
        std::to_string(ranks) + " ranks " +
        (strat == ExchangeStrategy::MasterThread ? "master" : "t2t") +
        (overlap ? " overlap" : "");
    expect_serial(want, run_group(m, g), what);
    InjectorGuard faults("seed=9,halo_corrupt=0.2,halo_drop=0.2");
    const std::vector<Outcome> faulted = run_group(m, g);
    expect_serial(want, faulted, what + " faults");
    EXPECT_GT(retransmits(faulted), 0u) << what;
  }
}

TEST(OwnerComputes, TwoRanksMatchSerialSolveBitwise) {
  check_ranks(2, true);
  check_ranks(2, false);
}

TEST(OwnerComputes, ThreeRanksMatchSerialSolveBitwise) { check_ranks(3, true); }

TEST(OwnerComputes, FourRanksMatchSerialSolveBitwise) { check_ranks(4, true); }

TEST(OwnerComputes, StateNanRecoveryMatchesSerialRecovery) {
  // The poisoned entry lands on every member's replicated state (the
  // injection site is the driver's cycle count), the gathered residual
  // norm goes non-finite everywhere, and every member rolls back and backs
  // off exactly as the single-process guard does.
  InjectorGuard faults("seed=3,state_nan=0.3");
  const auto m = small_wing();
  const Outcome want = serial(m);
  ASSERT_EQ(want.result.outcome, resil::SolveOutcome::Recovered);
  ASSERT_GE(want.result.rollbacks, 1);
  Group g;
  expect_serial(want, run_group(m, g), "state_nan");
}

TEST(OwnerComputes, StaleForeignRowsChangeTheHistory) {
  const auto m = small_wing();
  const Outcome want = serial(m);
  Group g;
  g.stale = true;
  const std::vector<Outcome> got = run_group(m, g);
  for (const Outcome& o : got) EXPECT_NE(o.result.history, want.result.history);
}

TEST(OwnerComputes, GroupOfOneOwnsEveryNode) {
  // Without a transport the gather is a group of one: the mask owns every
  // node and the solver keeps the whole-level path (no gather runs).
  const auto m = small_wing();
  const Outcome want = serial(m);
  nsu3d::Nsu3dSolver s(m, flow(), options());
  nsu3d::FineGather gather(s.level(0), core::ExchangePlanOptions{}, true);
  for (const char o : gather.owned()) ASSERT_TRUE(o);
  int calls = 0;
  s.own_fine_nodes(gather.owned(),
                   [&](std::vector<nsu3d::State>&, nsu3d::GatherPhase) {
                     ++calls;
                   });
  const Outcome got = finish(s, s.solve_guarded(kCycles, 12));
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(got.result.history, want.result.history);
  EXPECT_EQ(got.state, want.state);
}

}  // namespace
}  // namespace columbia
