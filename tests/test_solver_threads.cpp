// Thread-count equivalence, edge-ownership and residual-reuse properties of
// the solver kernels. The pool's fixed chunking (smp/pool.hpp) plus the
// owner-writes edge sweeps (each node accumulated by one task, in
// ascending edge order) promise bit-identical results for every thread
// count; these tests hold the solvers to that promise.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "cart3d/solver.hpp"
#include "driver/database.hpp"
#include "geom/components.hpp"
#include "mesh/builders.hpp"
#include "nsu3d/solver.hpp"
#include "obs/obs.hpp"
#include "smp/pool.hpp"

namespace columbia {
namespace {

/// Restores the global pool to a single thread when a test exits.
struct PoolGuard {
  ~PoolGuard() { smp::set_global_threads(1); }
};

mesh::UnstructuredMesh small_wing() {
  mesh::WingMeshSpec spec;
  spec.n_wrap = 24;
  spec.n_span = 3;
  spec.n_normal = 10;
  spec.wall_spacing = 1e-4;
  return mesh::make_wing_mesh(spec);
}

euler::FlowConditions wing_flow() {
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.reynolds = 3e6;
  return fc;
}

std::vector<real_t> run_nsu3d(const mesh::UnstructuredMesh& m,
                              nsu3d::SmootherKind smoother, int threads,
                              bool color_edges = true) {
  PoolGuard guard;
  smp::set_global_threads(threads);
  nsu3d::Nsu3dOptions o;
  o.mg_levels = 3;
  o.smoother = smoother;
  o.color_edges = color_edges;
  nsu3d::Nsu3dSolver s(m, wing_flow(), o);
  return s.solve(6, 10);
}

void expect_same_history(const std::vector<real_t>& a,
                         const std::vector<real_t>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << what << " cycle " << i;
}

TEST(ThreadEquivalence, Nsu3dLineImplicitHistoryBitIdentical) {
  const auto m = small_wing();
  const auto h1 = run_nsu3d(m, nsu3d::SmootherKind::LineImplicit, 1);
  for (int t : {2, 3, 4}) {
    SCOPED_TRACE(t);
    expect_same_history(
        h1, run_nsu3d(m, nsu3d::SmootherKind::LineImplicit, t), "line");
  }
}

TEST(ThreadEquivalence, Nsu3dPointImplicitHistoryBitIdentical) {
  const auto m = small_wing();
  const auto h1 = run_nsu3d(m, nsu3d::SmootherKind::PointImplicit, 1);
  for (int t : {2, 3, 4}) {
    SCOPED_TRACE(t);
    expect_same_history(
        h1, run_nsu3d(m, nsu3d::SmootherKind::PointImplicit, t), "point");
  }
}

TEST(ThreadEquivalence, Nsu3dUncoloredHistoryBitIdentical) {
  // Without the color-major sort the edges keep mesh order; the sweeps no
  // longer depend on colors, so this layout threads bit-identically too.
  const auto m = small_wing();
  const auto h1 = run_nsu3d(m, nsu3d::SmootherKind::LineImplicit, 1, false);
  expect_same_history(
      h1, run_nsu3d(m, nsu3d::SmootherKind::LineImplicit, 4, false),
      "uncolored");
}

/// The owner-list invariant for edges (a[e], b[e]) over `nv` vertices: the
/// parts tile [0, nv) in order, and part p lists, in ascending edge index,
/// exactly the edges with an endpoint in its range, flagged with the sides
/// it owns — so each edge is listed once per owner.
void expect_owner_lists(std::size_t nv, const std::vector<index_t>& ea,
                        const std::vector<index_t>& eb, int parts) {
  using O = smp::EdgeOwners;
  O own;
  own.build(nv, ea, eb, parts);
  const std::size_t np = std::size_t(parts);
  ASSERT_EQ(own.vertex_begin.size(), np + 1);
  EXPECT_EQ(own.vertex_begin.front(), 0);
  EXPECT_EQ(std::size_t(own.vertex_begin.back()), nv);
  for (std::size_t p = 0; p < np; ++p)
    ASSERT_LE(own.vertex_begin[p], own.vertex_begin[p + 1]);
  auto owner = [&](index_t v) {
    std::size_t p = 0;
    while (v >= own.vertex_begin[p + 1]) ++p;
    return p;
  };
  ASSERT_EQ(own.offsets.size(), np + 1);
  ASSERT_EQ(own.offsets.back(), own.entries.size());
  std::vector<int> listed(ea.size(), 0);
  for (std::size_t p = 0; p < np; ++p) {
    std::int64_t prev = -1;
    for (std::size_t k = own.offsets[p]; k < own.offsets[p + 1]; ++k) {
      const std::uint32_t x = own.entries[k];
      const std::size_t e = x >> 2;
      ASSERT_LT(e, ea.size());
      ASSERT_GT(std::int64_t(e), prev) << "part " << p << " not ascending";
      prev = std::int64_t(e);
      EXPECT_EQ(bool(x & O::kOwnA), owner(ea[e]) == p) << "edge " << e;
      EXPECT_EQ(bool(x & O::kOwnB), owner(eb[e]) == p) << "edge " << e;
      ++listed[e];
    }
  }
  for (std::size_t e = 0; e < ea.size(); ++e)
    ASSERT_EQ(listed[e], owner(ea[e]) == owner(eb[e]) ? 1 : 2) << "edge " << e;
}

cartesian::CartMesh small_sphere(int max_level) {
  geom::Aabb domain;
  domain.expand({-1.5, -1.5, -1.5});
  domain.expand({1.5, 1.5, 1.5});
  const auto sphere = geom::make_sphere({0, 0, 0}, 0.4, 16, 32);
  cartesian::CartMeshOptions mo;
  mo.base_n = 8;
  mo.max_level = max_level;
  return cartesian::build_cart_mesh(sphere, domain, mo);
}

euler::FlowConditions sphere_flow() {
  euler::FlowConditions fc;
  fc.mach = 0.3;
  fc.alpha_deg = 2.0;
  return fc;
}

cart3d::SolverOptions sphere_options() {
  cart3d::SolverOptions o;
  o.mg_levels = 3;  // W-cycle, two pre- and one post-smoothing step
  return o;
}

TEST(ThreadEquivalence, Cart3dHistoryBitIdentical) {
  // Face sweeps are owner-writes: every cell receives its face
  // contributions in ascending face order at any width, so histories,
  // the final fine state and the forces match width 1 bit for bit.
  for (int max_level : {2, 3}) {
    const auto m = small_sphere(max_level);
    struct Run {
      std::vector<real_t> history;
      std::vector<euler::Cons> state;
      cart3d::Forces forces;
    };
    auto run = [&](int threads) {
      PoolGuard guard;
      smp::set_global_threads(threads);
      cart3d::Cart3DSolver s(m, sphere_flow(), sphere_options());
      Run r;
      r.history = s.solve(6, 12);
      r.state = s.solution();
      r.forces = s.integrate_forces();
      return r;
    };
    const Run r1 = run(1);
    for (int t : {2, 3, 4}) {
      SCOPED_TRACE(testing::Message() << "max_level " << max_level
                                      << " threads " << t);
      const Run rt = run(t);
      expect_same_history(r1.history, rt.history, "cart3d");
      EXPECT_TRUE(r1.state == rt.state) << "fine state differs";
      EXPECT_EQ(r1.forces.cd, rt.forces.cd);
      EXPECT_EQ(r1.forces.cl, rt.forces.cl);
    }
  }
}

TEST(FaceOwners, ListsEveryFaceOncePerOwnerInAscendingOrder) {
  const auto m = small_sphere(2);
  const cart3d::Cart3DSolver s(m, sphere_flow(), sphere_options());
  for (int l = 0; l < s.num_levels(); ++l) {
    cart3d::kernels::LevelGeom g;
    g.build(s.mesh(l));
    ASSERT_GT(g.faces, 0u);
    for (int parts = 1; parts <= 5; ++parts) {
      SCOPED_TRACE(testing::Message() << "level " << l << " parts " << parts);
      expect_owner_lists(g.cells, g.fl, g.fr, parts);
    }
  }
}

TEST(ColorReorder, SpansAreConflictFree) {
  // The property the threaded scatter relies on: across the owner parts of
  // an edge sweep, every node is written by exactly one part, and a part
  // writes only the nodes in its own range.
  const auto m = small_wing();
  nsu3d::LevelOptions lo;
  lo.num_levels = 2;
  const auto levels = nsu3d::build_levels(m, lo);
  for (const nsu3d::Level& lvl : levels) {
    for (int parts : {2, 4}) {
      smp::EdgeOwners own;
      own.build(std::size_t(lvl.num_nodes), lvl.edge_a, lvl.edge_b, parts);
      std::vector<int> writer(std::size_t(lvl.num_nodes), -1);
      for (int p = 0; p < parts; ++p) {
        const std::size_t pp = std::size_t(p);
        for (std::size_t k = own.offsets[pp]; k < own.offsets[pp + 1]; ++k) {
          const std::uint32_t x = own.entries[k];
          const auto [a, b] = lvl.edges[x >> 2];
          for (const auto& [node, bit] :
               {std::pair{a, smp::EdgeOwners::kOwnA},
                std::pair{b, smp::EdgeOwners::kOwnB}}) {
            if (!(x & bit)) continue;
            ASSERT_GE(node, own.vertex_begin[pp]) << "part " << p;
            ASSERT_LT(node, own.vertex_begin[pp + 1]) << "part " << p;
            int& w = writer[std::size_t(node)];
            ASSERT_TRUE(w == -1 || w == p) << "node " << node;
            w = p;
          }
        }
      }
    }
  }
}

TEST(EdgeOwners, ListsEveryEdgeOncePerOwnerInAscendingOrder) {
  const auto m = small_wing();
  nsu3d::LevelOptions lo;
  lo.num_levels = 4;
  const auto levels = nsu3d::build_levels(m, lo);
  ASSERT_GE(levels.size(), 3u);
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const nsu3d::Level& lvl = levels[l];
    for (int parts = 1; parts <= 5; ++parts) {
      SCOPED_TRACE(testing::Message() << "level " << l << " parts " << parts);
      expect_owner_lists(std::size_t(lvl.num_nodes), lvl.edge_a, lvl.edge_b,
                         parts);
    }
  }
}

TEST(EdgeOwners, FollowPoolWidth) {
  const auto m = small_wing();
  nsu3d::LevelOptions lo;
  lo.num_levels = 1;
  const auto levels = nsu3d::build_levels(m, lo);
  PoolGuard guard;
  nsu3d::kernels::Scratch s;
  for (int t : {3, 1, 4}) {
    smp::set_global_threads(t);
    EXPECT_EQ(nsu3d::kernels::edge_owners(levels[0], s).parts, t);
  }
}

TEST(ColorReorder, PreservesResidualUpToRoundoff) {
  // Color-major storage permutes the per-node accumulation order, so
  // bit-exact agreement with the unordered edge loop is not expected
  // (floating-point addition is not associative); the sums must agree to
  // tight roundoff.
  const auto m = small_wing();
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.reynolds = 3e6;
  nsu3d::Nsu3dOptions colored;
  colored.mg_levels = 1;
  nsu3d::Nsu3dOptions plain = colored;
  plain.color_edges = false;

  PoolGuard guard;
  smp::set_global_threads(1);
  nsu3d::Nsu3dSolver sc(m, fc, colored);
  nsu3d::Nsu3dSolver sp(m, fc, plain);
  ASSERT_NE(sc.level(0).edges, sp.level(0).edges);  // a real permutation

  const auto sol = sc.solution();
  const std::vector<nsu3d::State> u(sol.begin(), sol.end());
  std::vector<nsu3d::State> rc, rp;
  sc.compute_residual(0, u, rc, true);
  sp.compute_residual(0, u, rp, true);

  ASSERT_EQ(rc.size(), rp.size());
  real_t scale = 0;
  for (const auto& r : rp)
    for (real_t x : r) scale = std::max(scale, std::abs(x));
  ASSERT_GT(scale, 0);
  for (std::size_t i = 0; i < rc.size(); ++i)
    for (int c = 0; c < 6; ++c)
      EXPECT_NEAR(rc[i][std::size_t(c)], rp[i][std::size_t(c)], 1e-12 * scale)
          << "node " << i << " comp " << c;
}

/// nsu3d.residual spans per level over one traced run of `body`.
template <class Fn>
std::map<std::int64_t, int> residual_calls(Fn&& body) {
  obs::reset_trace();
  obs::set_enabled(true);
  body();
  obs::set_enabled(false);
  std::map<std::int64_t, int> calls;
  for (const obs::TraceEvent& e : obs::trace_snapshot())
    if (e.phase == 'B' && std::string(e.name) == "nsu3d.residual")
      ++calls[e.arg_or("level", -1)];
  obs::reset_trace();
  return calls;
}

nsu3d::Nsu3dOptions reuse_options() {
  nsu3d::Nsu3dOptions o;
  o.mg_levels = 4;  // W-cycle, one pre- and one post-smoothing step
  return o;
}

TEST(ResidualReuse, CallsPerLevelMatchTheCycle) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const auto m = small_wing();
  PoolGuard guard;
  smp::set_global_threads(2);
  nsu3d::Nsu3dSolver s(m, wing_flow(), reuse_options());
  const int nl = s.num_levels();
  ASSERT_EQ(nl, 4);
  constexpr int kCycles = 5;
  const auto calls = residual_calls([&] { s.solve(kCycles, 30); });
  // Per W-cycle level l is visited v_l times (1, 2, 4, 4). A visit above
  // the coarsest computes pre-smooth + restriction + post-smooth
  // residuals, the coarsest only its pre-smooth one; each restriction
  // also computes the coarse residual, and residual_norm() the fine one.
  // The first pre-smooth after residual_norm() or a restriction reuses
  // that residual, which leaves 1 + 3N on level 0, 3 N v_l in between
  // and N v_l on the coarsest (271 / 540 / 1080 / 360 for 90 cycles).
  const std::vector<nsu3d::LevelWork> work = s.level_work();
  for (int l = 0; l < nl; ++l) {
    const int v = int(work[std::size_t(l)].visits_per_cycle);
    const int expected = l == 0        ? 1 + 3 * kCycles
                         : l == nl - 1 ? kCycles * v
                                       : 3 * kCycles * v;
    EXPECT_EQ(calls.count(l) ? calls.at(l) : 0, expected) << "level " << l;
  }
}

TEST(ResidualReuse, ForeignResidualBetweenCyclesKeepsHistory) {
  const auto m = small_wing();
  PoolGuard guard;
  smp::set_global_threads(3);
  nsu3d::Nsu3dSolver ref(m, wing_flow(), reuse_options());
  const std::vector<real_t> expected = ref.solve(6, 30);

  nsu3d::Nsu3dSolver s(m, wing_flow(), reuse_options());
  std::vector<real_t> got{s.residual_norm()};
  for (int c = 0; c < 6; ++c) {
    got.push_back(s.run_cycle());
    // Residuals of another state on every level overwrite the kernel
    // scratch the next smoothing sweep would otherwise reuse.
    for (int l = 0; l < s.num_levels(); ++l) {
      const auto sol = s.solution(l);
      std::vector<nsu3d::State> u(sol.begin(), sol.end()), r;
      for (nsu3d::State& x : u) x[4] *= 1.01;
      s.compute_residual(l, u, r, l == 0);
    }
  }
  expect_same_history(expected, got, "foreign residual");
}

TEST(ResidualReuse, CheckpointRestoreBetweenCyclesKeepsHistory) {
  const auto m = small_wing();
  PoolGuard guard;
  smp::set_global_threads(2);
  nsu3d::Nsu3dSolver ref(m, wing_flow(), reuse_options());
  const std::vector<real_t> expected = ref.solve(6, 30);

  nsu3d::Nsu3dSolver s(m, wing_flow(), reuse_options());
  std::vector<real_t> got{s.residual_norm()};
  for (int c = 0; c < 6; ++c) {
    const resil::Checkpoint cp = s.make_checkpoint(std::uint64_t(c), got);
    // A discarded cycle leaves a held residual of a state the restore
    // throws away.
    s.run_cycle();
    s.restore_checkpoint(cp);
    got.push_back(s.run_cycle());
  }
  expect_same_history(expected, got, "restore");
}

/// cart3d.residual spans per level over one traced run of `body`.
template <class Fn>
std::map<std::int64_t, int> cart3d_residual_calls(Fn&& body) {
  obs::reset_trace();
  obs::set_enabled(true);
  body();
  obs::set_enabled(false);
  std::map<std::int64_t, int> calls;
  for (const obs::TraceEvent& e : obs::trace_snapshot())
    if (e.phase == 'B' && std::string(e.name) == "cart3d.residual")
      ++calls[e.arg_or("level", -1)];
  obs::reset_trace();
  return calls;
}

TEST(ResidualReuse, Cart3dCallsPerLevelMatchTheCycle) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const auto m = small_sphere(2);
  PoolGuard guard;
  smp::set_global_threads(2);
  const cart3d::SolverOptions o = sphere_options();
  cart3d::Cart3DSolver s(m, sphere_flow(), o);
  const int nl = s.num_levels();
  ASSERT_EQ(nl, 3);
  constexpr int kCycles = 5;
  const auto calls = cart3d_residual_calls([&] { s.solve(kCycles, 30); });
  // A level visit runs 3 RK stages per smoothing step. Above the coarsest
  // it also computes its restriction residual, and each restriction
  // computes the coarse residual, which the coarse visit's first stage
  // reuses; residual_norm()'s fine residual is reused by the next cycle's
  // first stage. That leaves 1 + N * per_visit on level 0, N v_l per_visit
  // in between and N v_l * 3 * pre on the coarsest (per 3-level W-cycle:
  // 10 / 20 / 12, from 11 / 21 / 14 without reuse).
  const int pre = 3 * o.smooth_steps, per_visit = pre + 1 +
                                                   3 * o.post_smooth_steps;
  const std::vector<cart3d::LevelWork> work = s.level_work();
  for (int l = 0; l < nl; ++l) {
    const int v = int(work[std::size_t(l)].visits_per_cycle);
    const int expected = l == 0        ? 1 + kCycles * per_visit
                         : l == nl - 1 ? kCycles * v * pre
                                       : kCycles * v * per_visit;
    EXPECT_EQ(calls.count(l) ? calls.at(l) : 0, expected) << "level " << l;
  }
}

TEST(ResidualReuse, Cart3dForeignResidualBetweenCyclesKeepsHistory) {
  const auto m = small_sphere(2);
  PoolGuard guard;
  smp::set_global_threads(3);
  cart3d::Cart3DSolver ref(m, sphere_flow(), sphere_options());
  const std::vector<real_t> expected = ref.solve(6, 30);

  cart3d::Cart3DSolver s(m, sphere_flow(), sphere_options());
  std::vector<real_t> got{s.residual_norm()};
  for (int c = 0; c < 6; ++c) {
    got.push_back(s.run_cycle());
    // Residuals of another state on every level overwrite the kernel
    // scratch and any held residual vector a caller passes in.
    for (int l = 0; l < s.num_levels(); ++l) {
      std::vector<euler::Cons> u = s.solution(l), r;
      for (euler::Cons& x : u) x[4] *= 1.01;
      s.compute_residual(l, u, r, l == 0);
    }
  }
  expect_same_history(expected, got, "foreign residual");
}

TEST(ResidualReuse, Cart3dCheckpointRestoreBetweenCyclesKeepsHistory) {
  const auto m = small_sphere(2);
  PoolGuard guard;
  smp::set_global_threads(2);
  cart3d::Cart3DSolver ref(m, sphere_flow(), sphere_options());
  const std::vector<real_t> expected = ref.solve(6, 30);

  cart3d::Cart3DSolver s(m, sphere_flow(), sphere_options());
  std::vector<real_t> got{s.residual_norm()};
  for (int c = 0; c < 6; ++c) {
    const resil::Checkpoint cp = s.make_checkpoint(std::uint64_t(c), got);
    // A discarded cycle leaves a held residual of a state the restore
    // throws away.
    s.run_cycle();
    s.restore_checkpoint(cp);
    got.push_back(s.run_cycle());
  }
  expect_same_history(expected, got, "restore");
}

TEST(Lending, SweepResultsMatchOneCaseAtATime) {
  // Six cases on a budget of four: once the queue is empty, finished
  // workers retire and the cases still running grow their pools. The
  // solvers are bit-identical across widths, so every result matches a
  // sweep that runs one case at a time on one thread.
  driver::DatabaseSpec spec;
  spec.machs = {0.3, 0.5};
  spec.alphas_deg = {0.0, 2.0, 4.0};
  spec.geometry = [](real_t) {
    return geom::make_sphere({0, 0, 0}, 0.4, 16, 32);
  };
  spec.domain.expand({-1.5, -1.5, -1.5});
  spec.domain.expand({1.5, 1.5, 1.5});
  spec.mesh_options.base_n = 8;
  spec.mesh_options.max_level = 2;
  spec.solver_options = sphere_options();
  spec.max_cycles = 12;
  spec.convergence_orders = 3;

  spec.simultaneous_cases = 1;
  const std::vector<driver::CaseResult> one = driver::DatabaseFill(spec).run();

  obs::reset_metrics();
  obs::set_enabled(true);
  spec.simultaneous_cases = 4;
  const std::vector<driver::CaseResult> lent =
      driver::DatabaseFill(spec).run();
  obs::set_enabled(false);
  const std::uint64_t grows = obs::counter("driver.pool_grows").value();
  obs::reset_trace();
  obs::reset_metrics();

  ASSERT_EQ(one.size(), 6u);
  ASSERT_EQ(lent.size(), one.size());
  for (std::size_t k = 0; k < one.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "case " << k);
    EXPECT_EQ(lent[k].wind.mach, one[k].wind.mach);
    EXPECT_EQ(lent[k].wind.alpha_deg, one[k].wind.alpha_deg);
    EXPECT_EQ(lent[k].cl, one[k].cl);
    EXPECT_EQ(lent[k].cd, one[k].cd);
    EXPECT_EQ(lent[k].residual_drop, one[k].residual_drop);
    EXPECT_EQ(lent[k].cycles, one[k].cycles);
    EXPECT_EQ(lent[k].converged, one[k].converged);
    EXPECT_EQ(lent[k].status, one[k].status);
  }
  if (obs::kCompiledIn) EXPECT_GT(grows, 0u) << "no case was lent a core";
}

}  // namespace
}  // namespace columbia
