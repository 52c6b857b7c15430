// The shared solver-runtime core: persistent ExchangePlans must deliver
// exactly the direct-lookup values data[from_partition][item] (both
// strategies, with halo fault injection on or off), count the closed-form
// fault-free traffic, refuse posted data too short for their requests and
// stay allocation-free in steady state, and the unified cycle bookkeeping
// must reproduce the solvers' historical visit counts. Steady-state multigrid
// cycles of both solvers allocate nothing either, at any pool width.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <new>
#include <set>

#include "cart3d/partitioned.hpp"
#include "cart3d/solver.hpp"
#include "core/exchange_plan.hpp"
#include "core/params.hpp"
#include "geom/components.hpp"
#include "mesh/builders.hpp"
#include "nsu3d/partitioned.hpp"
#include "nsu3d/solver.hpp"
#include "perf/loads.hpp"
#include "resil/faults.hpp"
#include "smp/pool.hpp"
#include "support/random.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: replaces operator new/delete for this binary so
// the zero-steady-state-allocation contract of ExchangePlan::exchange is a
// hard assertion, not a benchmark-only observation.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// left to the runtime they pair a foreign allocation with the free()
// below, which AddressSanitizer reports as an alloc-dealloc mismatch.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  void* p = std::malloc(n ? n : 1);
  if (p) g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void* operator new(std::size_t n, std::align_val_t al) {
  void* p = std::aligned_alloc(std::size_t(al),
                               (n + std::size_t(al) - 1) &
                                   ~(std::size_t(al) - 1));
  if (!p) throw std::bad_alloc();
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
// ---------------------------------------------------------------------------

namespace columbia::core {
namespace {

struct InjectorGuard {
  explicit InjectorGuard(const std::string& spec) {
    resil::FaultInjector::global().configure(resil::parse_fault_spec(spec));
  }
  ~InjectorGuard() { resil::FaultInjector::global().reset(); }
};

/// Random partition data + random cross-partition requests.
struct Scenario {
  PartitionData data;
  RequestLists requests;
};

Scenario make_scenario(index_t nparts, index_t items_per_part,
                       index_t requests_per_part, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Scenario s;
  s.data.resize(std::size_t(nparts));
  for (auto& d : s.data) {
    d.resize(std::size_t(items_per_part));
    for (auto& v : d) v = rng.uniform(-10, 10);
  }
  s.requests.resize(std::size_t(nparts));
  for (index_t p = 0; p < nparts; ++p) {
    for (index_t k = 0; k < requests_per_part; ++k) {
      HaloRequest r;
      r.from_partition = index_t(rng.below(std::uint64_t(nparts)));
      r.item = index_t(rng.below(std::uint64_t(items_per_part)));
      s.requests[std::size_t(p)].push_back(r);
    }
  }
  return s;
}

/// Ground truth: direct lookups.
PartitionData expected(const Scenario& s) {
  PartitionData out(s.data.size(), std::vector<real_t>{});
  for (std::size_t p = 0; p < s.data.size(); ++p)
    for (const HaloRequest& r : s.requests[p])
      out[p].push_back(
          s.data[std::size_t(r.from_partition)][std::size_t(r.item)]);
  return out;
}

TEST(ExchangePlan, ThreadToThreadMatchesDirectLookupBitwise) {
  const Scenario s = make_scenario(8, 20, 15, 1);
  ExchangePlan plan(s.requests);
  EXPECT_EQ(plan.exchange(s.data), expected(s));
}

TEST(ExchangePlan, MasterThreadMatchesDirectLookupBitwise) {
  const Scenario s = make_scenario(8, 20, 15, 2);
  const PartitionData want = expected(s);
  for (int tpp : {1, 2, 4, 8}) {
    ExchangePlan plan(s.requests,
                      {ExchangeStrategy::MasterThread, tpp});
    EXPECT_EQ(plan.exchange(s.data), want) << tpp << " threads per process";
  }
}

TEST(ExchangePlan, RepeatedExchangesTrackChangingData) {
  Scenario s = make_scenario(6, 12, 10, 3);
  ExchangePlan plan(s.requests);
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(plan.exchange(s.data), expected(s)) << "round " << round;
    for (auto& d : s.data)
      for (auto& v : d) v += 0.25 * real_t(round + 1);
  }
  EXPECT_EQ(plan.stats().exchanges, 5u);
}

/// Closed-form fault-free traffic of one exchange with `tpp` partitions per
/// rank: one message per distinct cross-rank (sender rank, receiver rank)
/// pair, each a frame of its payload plus the count and crc words.
ExchangeStats closed_form_traffic(const RequestLists& requests, index_t tpp) {
  std::map<std::pair<index_t, index_t>, std::uint64_t> payload;
  for (index_t q = 0; q < index_t(requests.size()); ++q)
    for (const HaloRequest& r : requests[std::size_t(q)])
      if (r.from_partition / tpp != q / tpp)
        payload[{r.from_partition / tpp, q / tpp}] += 1;
  ExchangeStats st;
  st.messages = payload.size();
  for (const auto& [pair, n] : payload) st.bytes += (n + 2) * sizeof(real_t);
  return st;
}

TEST(ExchangePlan, FaultFreeTrafficMatchesClosedForm) {
  const Scenario s = make_scenario(10, 25, 20, 4);

  ExchangePlan plan(s.requests);
  plan.exchange(s.data);
  const ExchangeStats flat = closed_form_traffic(s.requests, 1);
  EXPECT_EQ(plan.stats().messages, flat.messages);
  EXPECT_EQ(plan.stats().bytes, flat.bytes);
  EXPECT_EQ(plan.stats().messages, plan.messages_per_exchange());

  ExchangePlan mplan(s.requests, {ExchangeStrategy::MasterThread, 2});
  mplan.exchange(s.data);
  const ExchangeStats packed = closed_form_traffic(s.requests, 2);
  EXPECT_EQ(mplan.stats().messages, packed.messages);
  EXPECT_EQ(mplan.stats().bytes, packed.bytes);
  // Fig. 7b: fewer, larger messages.
  EXPECT_LT(mplan.messages_per_exchange(), plan.messages_per_exchange());
  EXPECT_GT(double(mplan.stats().bytes) / double(mplan.stats().messages),
            double(plan.stats().bytes) / double(plan.stats().messages));
}

TEST(ExchangePlan, IntraProcessRequestsNeedNoMessages) {
  // All requests stay within each process: zero traffic.
  Scenario s = make_scenario(8, 10, 0, 5);
  for (index_t p = 0; p < 8; ++p)
    for (index_t k = 0; k < 5; ++k)
      s.requests[std::size_t(p)].push_back({p ^ 1, k});  // partner partition
  // Pairs (0,1),(2,3),... share a process.
  ExchangePlan plan(s.requests, {ExchangeStrategy::MasterThread, 2});
  EXPECT_EQ(plan.messages_per_exchange(), 0u);
  EXPECT_EQ(plan.exchange(s.data), expected(s));
  EXPECT_EQ(plan.stats().messages, 0u);
}

TEST(ExchangePlan, SinglePartitionDegenerate) {
  Scenario s = make_scenario(1, 5, 3, 6);
  for (auto& reqs : s.requests)
    for (auto& r : reqs) r.from_partition = 0;
  ExchangePlan plan(s.requests, {ExchangeStrategy::MasterThread, 1});
  EXPECT_EQ(plan.exchange(s.data), expected(s));
  EXPECT_EQ(plan.stats().messages, 0u);
}

TEST(ExchangePlanDeathTest, RejectsOutOfRangeRequestItems) {
  // A request past the end of the posted array must abort in post() with
  // the precondition message, not read out of bounds; a negative item
  // aborts at build.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Scenario s = make_scenario(4, 20, 6, 9);
  s.requests[0].push_back({1, 19});
  ExchangePlan plan(s.requests);
  EXPECT_EQ(plan.exchange(s.data), expected(s));
  s.data[1].resize(19);
  EXPECT_DEATH(plan.post(s.data), "precondition failed");
  s.requests[2].push_back({3, -1});
  EXPECT_DEATH(ExchangePlan{s.requests}, "precondition failed");
}

TEST(ExchangePlan, BitIdenticalUnderHaloCorruption) {
  const Scenario s = make_scenario(8, 20, 15, 5);
  const PartitionData want = expected(s);
  InjectorGuard faults("seed=5,halo_corrupt=0.5");
  for (int tpp : {1, 2, 4}) {
    ExchangePlan plan(s.requests, {ExchangeStrategy::MasterThread, tpp});
    for (int round = 0; round < 4; ++round)
      EXPECT_EQ(plan.exchange(s.data), want)
          << "tpp " << tpp << " round " << round;
  }
  EXPECT_GT(resil::FaultInjector::global().injected(
                resil::FaultKind::HaloCorrupt),
            0u);
}

TEST(ExchangePlan, BitIdenticalUnderHaloDrops) {
  const Scenario s = make_scenario(8, 20, 15, 6);
  const PartitionData want = expected(s);
  InjectorGuard faults("seed=3,halo_drop=0.5");
  ExchangePlan t2t(s.requests);
  ExchangePlan master(s.requests, {ExchangeStrategy::MasterThread, 4});
  for (int round = 0; round < 4; ++round) {
    EXPECT_EQ(t2t.exchange(s.data), want);
    EXPECT_EQ(master.exchange(s.data), want);
  }
  EXPECT_GT(t2t.stats().retransmits + master.stats().retransmits, 0u);
  EXPECT_GT(resil::FaultInjector::global().injected(resil::FaultKind::HaloDrop),
            0u);
}

TEST(ExchangePlan, SteadyStateExchangePerformsZeroAllocations) {
  Scenario s = make_scenario(12, 30, 25, 7);
  // Level-tagged plans take the exact same hot path as untagged ones; the
  // halo.xchg span guards they carry must cost zero allocations while
  // observability is disabled (the default), which is the state this test
  // runs in.
  ExchangePlan t2t(s.requests, {ExchangeStrategy::ThreadToThread, 1, 0});
  ExchangePlan master(s.requests, {ExchangeStrategy::MasterThread, 3, 1});
  // Warm-up: first exchange may touch lazily-created observability
  // registries; everything after it must be allocation-free.
  t2t.exchange(s.data);
  master.exchange(s.data);

  const std::uint64_t before = g_alloc_count.load();
  for (int round = 0; round < 8; ++round) {
    t2t.exchange(s.data);
    master.exchange(s.data);
    for (auto& d : s.data)
      for (auto& v : d) v *= 1.0 + 1e-6;
  }
  EXPECT_EQ(g_alloc_count.load() - before, 0u)
      << "ExchangePlan::exchange allocated on the steady-state path";

  // The split overlap entry points are the same machinery under the same
  // contract: post() + interior compute + finish() must stay
  // allocation-free in steady state too.
  const std::uint64_t split_before = g_alloc_count.load();
  for (int round = 0; round < 8; ++round) {
    t2t.post(s.data);
    master.post(s.data);
    for (auto& d : s.data)
      for (auto& v : d) v *= 1.0 + 1e-6;  // overlapped "interior compute"
    t2t.finish();
    master.finish();
  }
  EXPECT_EQ(g_alloc_count.load() - split_before, 0u)
      << "ExchangePlan::post/finish allocated on the steady-state path";
}

TEST(ExchangePlan, ScheduleStatisticsMatchRequestLists) {
  const Scenario s = make_scenario(6, 15, 12, 8);
  ExchangePlan plan(s.requests);
  index_t max_ghost = 0, total_ghost = 0, max_nbrs = 0;
  for (index_t p = 0; p < 6; ++p) {
    index_t ghosts = 0;
    std::set<index_t> owners;
    for (const HaloRequest& r : s.requests[std::size_t(p)])
      if (r.from_partition != p) {
        ++ghosts;
        owners.insert(r.from_partition);
      }
    EXPECT_EQ(plan.ghost_items(p), ghosts);
    EXPECT_EQ(plan.neighbor_count(p), index_t(owners.size()));
    max_ghost = std::max(max_ghost, ghosts);
    total_ghost += ghosts;
    max_nbrs = std::max(max_nbrs, index_t(owners.size()));
  }
  EXPECT_EQ(plan.max_ghost_items(), max_ghost);
  EXPECT_EQ(plan.total_ghost_items(), total_ghost);
  EXPECT_EQ(plan.max_neighbors(), max_nbrs);

  const perf::MeasuredStats st = perf::stats_from_plan(plan);
  EXPECT_EQ(st.max_halo_items, real_t(max_ghost));
  EXPECT_EQ(st.comm_neighbors, max_nbrs);
}

TEST(CycleVisits, MatchesLegacyRecursionForBothCycleTypes) {
  for (int nl = 1; nl <= 6; ++nl) {
    EXPECT_EQ(cycle_visits(nl, CycleType::W), perf::cycle_visits(nl, true))
        << nl << " levels, W";
    EXPECT_EQ(cycle_visits(nl, CycleType::V), perf::cycle_visits(nl, false))
        << nl << " levels, V";
  }
  const auto w4 = cycle_visits(4, CycleType::W);
  EXPECT_EQ(w4, (std::vector<index_t>{1, 2, 4, 4}));
  const auto v4 = cycle_visits(4, CycleType::V);
  EXPECT_EQ(v4, (std::vector<index_t>{1, 1, 1, 1}));
}

// --- Solver consumers: both decompositions run the same plan type. ---

TEST(PlanConsumers, Nsu3dParallelResidualAgreesAcrossStrategies) {
  mesh::WingMeshSpec spec;
  spec.n_wrap = 24;
  spec.n_span = 3;
  spec.n_normal = 10;
  spec.wall_spacing = 1e-4;
  const auto m = mesh::make_wing_mesh(spec);
  nsu3d::LevelOptions lo;
  lo.num_levels = 1;
  const auto levels = nsu3d::build_levels(m, lo);
  const nsu3d::Level& lvl = levels[0];

  euler::FlowConditions fc;
  fc.mach = 0.6;
  const euler::Prim inf = fc.freestream();
  std::vector<nsu3d::State> u(std::size_t(lvl.num_nodes));
  for (index_t v = 0; v < lvl.num_nodes; ++v) {
    const geom::Vec3& x = lvl.node_center[std::size_t(v)];
    euler::Prim w = inf;
    w.rho *= 1.0 + 0.05 * std::sin(x.x + 0.3 * x.y);
    w.p *= 1.0 + 0.05 * std::cos(0.7 * x.z);
    const auto c5 = euler::to_conservative(w);
    for (int c = 0; c < 5; ++c)
      u[std::size_t(v)][std::size_t(c)] = c5[std::size_t(c)];
    u[std::size_t(v)][5] = 1e-5 * w.rho;
  }

  const auto plan = nsu3d::build_partition_plan(levels, 4);
  const auto& part = plan.levels[0].part;
  const auto t2t = nsu3d::parallel_residual(lvl, u, inf, part, 4);
  // The transport strategy must not change a single bit of the result.
  const auto master = nsu3d::parallel_residual(
      lvl, u, inf, part, 4, {ExchangeStrategy::MasterThread, 2});
  EXPECT_EQ(t2t, master);

  // Neither may fault injection on the halo frames.
  InjectorGuard faults("seed=7,halo_corrupt=0.3,halo_drop=0.3");
  const auto faulted = nsu3d::parallel_residual(
      lvl, u, inf, part, 4, {ExchangeStrategy::MasterThread, 2});
  EXPECT_EQ(t2t, faulted);
}

TEST(PlanConsumers, Cart3dParallelResidualMatchesSinglePartition) {
  const auto sphere = geom::make_sphere({0, 0, 0}, 0.4, 16, 32);
  geom::Aabb dom;
  dom.expand({-1.5, -1.5, -1.5});
  dom.expand({1.5, 1.5, 1.5});
  cartesian::CartMeshOptions mopt;
  mopt.base_n = 8;
  mopt.max_level = 2;
  const cartesian::CartMesh m = cartesian::build_cart_mesh(sphere, dom, mopt);

  euler::FlowConditions fc;
  fc.mach = 0.5;
  fc.alpha_deg = 2.0;
  const euler::Prim inf = fc.freestream();
  std::vector<euler::Cons> u(m.cells.size());
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    euler::Prim w = inf;
    const geom::Vec3 x = m.cell_center(m.cells[i]);
    w.rho *= 1.0 + 0.04 * std::sin(1.3 * x.x + 0.5 * x.y);
    w.p *= 1.0 + 0.04 * std::cos(0.9 * x.z);
    u[i] = euler::to_conservative(w);
  }

  const auto part = cartesian::partition_cells(m, 4);
  const auto par = cart3d::parallel_residual(m, u, inf, part, 4);
  const std::vector<index_t> one(m.cells.size(), 0);
  const auto ser = cart3d::parallel_residual(m, u, inf, one, 1);
  ASSERT_EQ(par.size(), ser.size());
  real_t scale = 0;
  for (const auto& r : ser)
    for (real_t x : r) scale = std::max(scale, std::abs(x));
  for (std::size_t i = 0; i < par.size(); ++i)
    for (int c = 0; c < 5; ++c)
      EXPECT_NEAR(par[i][std::size_t(c)], ser[i][std::size_t(c)],
                  1e-10 * scale)
          << "cell " << i << " comp " << c;

  // Strategy- and fault-independence are exact, as for NSU3D.
  const auto master = cart3d::parallel_residual(
      m, u, inf, part, 4, euler::FluxScheme::Roe,
      {ExchangeStrategy::MasterThread, 2});
  EXPECT_EQ(par, master);
  InjectorGuard faults("seed=9,halo_corrupt=0.3,halo_drop=0.3");
  const auto faulted = cart3d::parallel_residual(m, u, inf, part, 4);
  EXPECT_EQ(par, faulted);
}

// --- Solvers: steady-state multigrid cycles allocate nothing. ---

/// Heap allocations over `cycles` multigrid cycles that follow two warm-up
/// cycles (which size every scratch vector and build the owner lists).
template <class Solver>
std::uint64_t steady_cycle_allocations(Solver& s, int cycles) {
  for (int c = 0; c < 2; ++c) s.run_cycle();
  const std::uint64_t before = g_alloc_count.load();
  for (int c = 0; c < cycles; ++c) s.run_cycle();
  return g_alloc_count.load() - before;
}

/// Sets the pool width for one scope, then restores a single thread.
struct PoolWidth {
  explicit PoolWidth(int t) { smp::set_global_threads(t); }
  ~PoolWidth() { smp::set_global_threads(1); }
};

TEST(SteadyState, Nsu3dCyclesPerformZeroAllocations) {
  mesh::WingMeshSpec spec;
  spec.n_wrap = 24;
  spec.n_span = 3;
  spec.n_normal = 10;
  spec.wall_spacing = 1e-4;
  const auto m = mesh::make_wing_mesh(spec);
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.reynolds = 3e6;
  nsu3d::Nsu3dOptions o;  // line-implicit RANS
  o.mg_levels = 3;
  for (int t : {1, 4}) {
    PoolWidth width(t);
    nsu3d::Nsu3dSolver s(m, fc, o);
    EXPECT_EQ(steady_cycle_allocations(s, 3), 0u) << "width " << t;
  }
}

TEST(SteadyState, Cart3dCyclesPerformZeroAllocations) {
  const auto sphere = geom::make_sphere({0, 0, 0}, 0.4, 16, 32);
  geom::Aabb dom;
  dom.expand({-1.5, -1.5, -1.5});
  dom.expand({1.5, 1.5, 1.5});
  cartesian::CartMeshOptions mopt;
  mopt.base_n = 8;
  mopt.max_level = 2;
  const cartesian::CartMesh m = cartesian::build_cart_mesh(sphere, dom, mopt);
  euler::FlowConditions fc;
  fc.mach = 0.5;
  cart3d::SolverOptions o;
  o.mg_levels = 3;
  for (int t : {1, 4}) {
    PoolWidth width(t);
    cart3d::Cart3DSolver s(m, fc, o);
    EXPECT_EQ(steady_cycle_allocations(s, 3), 0u) << "width " << t;
  }
}

}  // namespace
}  // namespace columbia::core
