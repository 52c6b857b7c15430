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

TEST(ThreadEquivalence, Cart3dHistoryBitIdentical) {
  geom::Aabb domain;
  domain.expand({-1.5, -1.5, -1.5});
  domain.expand({1.5, 1.5, 1.5});
  const auto sphere = geom::make_sphere({0, 0, 0}, 0.4, 16, 32);
  cartesian::CartMeshOptions mo;
  mo.base_n = 8;
  mo.max_level = 2;
  const auto m = cartesian::build_cart_mesh(sphere, domain, mo);

  euler::FlowConditions fc;
  fc.mach = 0.3;
  cart3d::SolverOptions o;
  o.mg_levels = 2;
  auto run = [&](int threads) {
    PoolGuard guard;
    smp::set_global_threads(threads);
    cart3d::Cart3DSolver s(m, fc, o);
    return s.solve(8, 12);
  };
  const auto h1 = run(1);
  const auto h4 = run(4);
  ASSERT_EQ(h1.size(), h4.size());
  for (std::size_t i = 0; i < h1.size(); ++i)
    EXPECT_EQ(h1[i], h4[i]) << "cycle " << i;
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
      nsu3d::kernels::EdgeOwners own;
      own.build(lvl, parts);
      std::vector<int> writer(std::size_t(lvl.num_nodes), -1);
      for (int p = 0; p < parts; ++p) {
        const std::size_t pp = std::size_t(p);
        for (std::size_t k = own.offsets[pp]; k < own.offsets[pp + 1]; ++k) {
          const std::uint32_t x = own.entries[k];
          const auto [a, b] = lvl.edges[x >> 2];
          for (const auto& [node, bit] :
               {std::pair{a, nsu3d::kernels::EdgeOwners::kOwnA},
                std::pair{b, nsu3d::kernels::EdgeOwners::kOwnB}}) {
            if (!(x & bit)) continue;
            ASSERT_GE(node, own.node_begin[pp]) << "part " << p;
            ASSERT_LT(node, own.node_begin[pp + 1]) << "part " << p;
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
  using O = nsu3d::kernels::EdgeOwners;
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const nsu3d::Level& lvl = levels[l];
    for (int parts = 1; parts <= 5; ++parts) {
      SCOPED_TRACE(testing::Message() << "level " << l << " parts " << parts);
      O own;
      own.build(lvl, parts);
      const std::size_t np = std::size_t(parts);
      ASSERT_EQ(own.node_begin.size(), np + 1);
      EXPECT_EQ(own.node_begin.front(), 0);
      EXPECT_EQ(own.node_begin.back(), lvl.num_nodes);
      for (std::size_t p = 0; p < np; ++p)
        ASSERT_LE(own.node_begin[p], own.node_begin[p + 1]);
      auto owner = [&](index_t v) {
        std::size_t p = 0;
        while (v >= own.node_begin[p + 1]) ++p;
        return p;
      };
      ASSERT_EQ(own.offsets.size(), np + 1);
      ASSERT_EQ(own.offsets.back(), own.entries.size());
      std::vector<int> listed(lvl.edges.size(), 0);
      for (std::size_t p = 0; p < np; ++p) {
        std::int64_t prev = -1;
        for (std::size_t k = own.offsets[p]; k < own.offsets[p + 1]; ++k) {
          const std::uint32_t x = own.entries[k];
          const std::size_t e = x >> 2;
          ASSERT_LT(e, lvl.edges.size());
          ASSERT_GT(std::int64_t(e), prev) << "part " << p << " not ascending";
          prev = std::int64_t(e);
          const auto [a, b] = lvl.edges[e];
          EXPECT_EQ(bool(x & O::kOwnA), owner(a) == p) << "edge " << e;
          EXPECT_EQ(bool(x & O::kOwnB), owner(b) == p) << "edge " << e;
          ++listed[e];
        }
      }
      for (std::size_t e = 0; e < lvl.edges.size(); ++e) {
        const auto [a, b] = lvl.edges[e];
        ASSERT_EQ(listed[e], owner(a) == owner(b) ? 1 : 2) << "edge " << e;
      }
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

}  // namespace
}  // namespace columbia
