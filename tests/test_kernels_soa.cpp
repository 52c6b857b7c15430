// SoA kernel layer equivalence: the blocked/stream kernels must reproduce
// the retained scalar reference paths BIT FOR BIT — same residual, same
// gradient/limiter intermediates — at every thread count, and the
// temp-free block solves must match their operator*-based formulations
// exactly. These tests are the enforcement arm of the bit-identity
// contract documented in nsu3d/kernels.hpp and cart3d/kernels.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "cart3d/kernels.hpp"
#include "cart3d/partitioned.hpp"
#include "cartesian/cart_mesh.hpp"
#include "core/exchange_plan.hpp"
#include "euler/jacobian.hpp"
#include "geom/components.hpp"
#include "linalg/block.hpp"
#include "linalg/block_tridiag.hpp"
#include "mesh/builders.hpp"
#include "nsu3d/kernels.hpp"
#include "nsu3d/partitioned.hpp"
#include "nsu3d/solver.hpp"
#include "smp/pool.hpp"
#include "support/random.hpp"

namespace columbia {
namespace {

using core::ExchangeStrategy;

/// Restores the global pool to a single thread when a test exits.
struct PoolGuard {
  ~PoolGuard() { smp::set_global_threads(1); }
};

// --- NSU3D ---

mesh::UnstructuredMesh small_wing() {
  mesh::WingMeshSpec spec;
  spec.n_wrap = 24;
  spec.n_span = 3;
  spec.n_normal = 10;
  spec.wall_spacing = 1e-4;
  return mesh::make_wing_mesh(spec);
}

nsu3d::kernels::Physics wing_physics(const euler::FlowConditions& fc) {
  nsu3d::kernels::Physics phys;
  phys.freestream = fc.freestream();
  phys.flux = euler::FluxScheme::Roe;
  phys.mu_lam = fc.mach / fc.reynolds;
  phys.nut_inf = 3.0 * phys.mu_lam / phys.freestream.rho;
  phys.viscous = true;
  return phys;
}

/// Smooth non-freestream state so gradients, limiter and SA terms are all
/// exercised with nontrivial values.
std::vector<nsu3d::State> wing_state(const nsu3d::Level& lvl,
                                     const nsu3d::kernels::Physics& phys) {
  std::vector<nsu3d::State> u(std::size_t(lvl.num_nodes));
  for (index_t v = 0; v < lvl.num_nodes; ++v) {
    const geom::Vec3& x = lvl.node_center[std::size_t(v)];
    euler::Prim w = phys.freestream;
    w.rho *= 1.0 + 0.05 * std::sin(1.1 * x.x + 0.4 * x.y);
    w.p *= 1.0 + 0.05 * std::cos(0.8 * x.z + 0.2 * x.x);
    w.vel.x *= 1.0 + 0.03 * std::sin(0.6 * x.y);
    const auto c5 = euler::to_conservative(w);
    for (int c = 0; c < 5; ++c)
      u[std::size_t(v)][std::size_t(c)] = c5[std::size_t(c)];
    u[std::size_t(v)][5] =
        w.rho * phys.nut_inf * (1.0 + 0.2 * std::cos(0.5 * x.x));
  }
  return u;
}

TEST(Nsu3dSoA, ResidualMatchesReferenceBitwiseAcrossThreads) {
  PoolGuard guard;
  const auto m = small_wing();
  nsu3d::LevelOptions lo;
  lo.num_levels = 2;
  const auto levels = nsu3d::build_levels(m, lo);
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.reynolds = 3e6;
  const auto phys = wing_physics(fc);

  for (const nsu3d::Level& lvl : levels) {
    const int level = (&lvl == &levels.front()) ? 0 : 1;
    const auto u = wing_state(lvl, phys);

    for (bool second_order : {true, false}) {
      smp::set_global_threads(1);
      nsu3d::kernels::ReferenceScratch rs;
      std::vector<nsu3d::State> ref;
      nsu3d::kernels::residual_reference(lvl, phys, level, u, second_order,
                                         rs, ref);

      for (int threads : {1, 2, 4}) {
        smp::set_global_threads(threads);
        nsu3d::kernels::Scratch s;
        std::vector<nsu3d::State> res;
        nsu3d::kernels::residual(lvl, phys, level, u, second_order, s, res);
        ASSERT_EQ(res.size(), ref.size());
        for (std::size_t i = 0; i < res.size(); ++i)
          for (int c = 0; c < 6; ++c)
            EXPECT_EQ(res[i][std::size_t(c)], ref[i][std::size_t(c)])
                << "level " << level << " order " << second_order << " t="
                << threads << " node " << i << " comp " << c;
      }
    }
  }
}

TEST(Nsu3dSoA, GradientLimiterBlocksMatchReferenceBitwise) {
  // The intermediates, not just the final residual: the blocked gradient /
  // min-max / phi streams must hold exactly the values the scalar
  // reference computes into its AoS arrays.
  PoolGuard guard;
  const auto m = small_wing();
  nsu3d::LevelOptions lo;
  lo.num_levels = 1;
  const auto levels = nsu3d::build_levels(m, lo);
  const nsu3d::Level& lvl = levels[0];
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.reynolds = 3e6;
  const auto phys = wing_physics(fc);
  const auto u = wing_state(lvl, phys);

  smp::set_global_threads(1);
  nsu3d::kernels::ReferenceScratch rs;
  std::vector<nsu3d::State> ref;
  nsu3d::kernels::residual_reference(lvl, phys, 0, u, true, rs, ref);

  for (int threads : {1, 4}) {
    smp::set_global_threads(threads);
    nsu3d::kernels::Scratch s;
    std::vector<nsu3d::State> res;
    nsu3d::kernels::residual(lvl, phys, 0, u, true, s, res);

    using nsu3d::kernels::kGradStride;
    using nsu3d::kernels::kPhiStride;
    for (index_t i = 0; i < lvl.num_nodes; ++i) {
      const real_t* g = &s.gb[std::size_t(i) * kGradStride];
      const real_t* p = &s.ph[std::size_t(i) * kPhiStride];
      for (int c = 0; c < 6; ++c) {
        const auto sc = std::size_t(c);
        EXPECT_EQ(g[c], rs.grad[std::size_t(i)][sc].x) << i << "/" << c;
        EXPECT_EQ(g[6 + c], rs.grad[std::size_t(i)][sc].y) << i << "/" << c;
        EXPECT_EQ(g[12 + c], rs.grad[std::size_t(i)][sc].z) << i << "/" << c;
        EXPECT_EQ(g[18 + c], rs.qmin[std::size_t(i)][sc]) << i << "/" << c;
        EXPECT_EQ(g[24 + c], rs.qmax[std::size_t(i)][sc]) << i << "/" << c;
        EXPECT_EQ(p[c], rs.phi[std::size_t(i)][sc]) << i << "/" << c;
      }
    }
  }
}

/// Test-only oracle for smoother_blocks: the per-edge assembly it replaced.
/// Wave-speed sums (with the boundary spectral radius) and dense 6x6
/// diagonal blocks summing A(w_i, n_e)/2 + lam_e/2 over every edge side,
/// serial, in edge order.
void smoother_blocks_oracle(const nsu3d::Level& lvl,
                            const nsu3d::kernels::Physics& phys, real_t cfl,
                            const std::vector<nsu3d::State>& u,
                            const nsu3d::kernels::Scratch& s,
                            std::vector<real_t>& wave,
                            std::vector<linalg::BlockMat<6>>& diag) {
  const std::size_t n = std::size_t(lvl.num_nodes);
  const auto& w = s.w;
  const auto& mut = s.mut;
  std::vector<real_t> snd(n);
  for (std::size_t i = 0; i < n; ++i) snd[i] = w[i].sound_speed();
  wave.assign(n, 0.0);
  for (std::size_t e = 0; e < lvl.edges.size(); ++e) {
    const std::size_t a = std::size_t(lvl.edge_a[e]);
    const std::size_t b = std::size_t(lvl.edge_b[e]);
    const real_t area = lvl.edge_area[e];
    if (area <= 0) continue;
    const geom::Vec3 nh{lvl.edge_ux[e], lvl.edge_uy[e], lvl.edge_uz[e]};
    wave[a] += (std::abs(dot(w[a].vel, nh)) + snd[a]) * area;
    wave[b] += (std::abs(dot(w[b].vel, nh)) + snd[b]) * area;
    if (phys.viscous && lvl.edge_length[e] > 0) {
      const real_t c = (phys.mu_lam + 0.5 * (mut[a] + mut[b])) * area /
                       lvl.edge_length[e];
      wave[a] += c / w[a].rho;
      wave[b] += c / w[b].rho;
    }
  }
  std::vector<real_t> lam_b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    geom::Vec3 bn{};
    for (const geom::Vec3& t : lvl.boundary_normal[i]) bn += t;
    const real_t ba = norm(bn);
    if (ba > 0) lam_b[i] = euler::spectral_radius(w[i], bn / ba) * ba;
    wave[i] += lam_b[i];
  }

  diag.assign(n, linalg::BlockMat<6>{});
  for (std::size_t i = 0; i < n; ++i) {
    const real_t vol = lvl.node_volume[i];
    const real_t dt = wave[i] > 0 ? cfl * vol / wave[i] : 1e30;
    diag[i] = linalg::BlockMat<6>::diagonal(vol / dt);
  }
  const auto add_side = [&](std::size_t i, const geom::Vec3& nrm, real_t lam) {
    const linalg::BlockMat<5> j = euler::flux_jacobian(w[i], nrm);
    for (int rr = 0; rr < 5; ++rr)
      for (int cc = 0; cc < 5; ++cc) diag[i](rr, cc) += 0.5 * j(rr, cc);
    for (int rr = 0; rr < 6; ++rr) diag[i](rr, rr) += 0.5 * lam;
  };
  for (std::size_t e = 0; e < lvl.edges.size(); ++e) {
    const std::size_t a = std::size_t(lvl.edge_a[e]);
    const std::size_t b = std::size_t(lvl.edge_b[e]);
    const real_t area = lvl.edge_area[e];
    if (area <= 0) continue;
    const geom::Vec3 nh{lvl.edge_ux[e], lvl.edge_uy[e], lvl.edge_uz[e]};
    add_side(a, lvl.edge_normal[e],
             (std::abs(dot(w[a].vel, nh)) + snd[a]) * area);
    add_side(b, -1.0 * lvl.edge_normal[e],
             (std::abs(dot(w[b].vel, nh)) + snd[b]) * area);
    if (phys.viscous && lvl.edge_geo[e] > 0) {
      const real_t geo = lvl.edge_geo[e];
      const real_t cm = (phys.mu_lam + 0.5 * (mut[a] + mut[b])) * geo;
      const real_t cs = (phys.mu_lam + 0.5 * (u[a][5] + u[b][5])) /
                        nsu3d::kernels::kSigma * geo;
      for (const std::size_t i : {a, b}) {
        for (int rr = 1; rr <= 4; ++rr) diag[i](rr, rr) += cm;
        diag[i](5, 5) += cs;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    for (int rr = 0; rr < 6; ++rr) diag[i](rr, rr) += 0.5 * lam_b[i];
}

TEST(Nsu3dSmoother, FusedBlocksMatchPerEdgeJacobianSum) {
  // smoother_blocks replaces the per-edge Jacobian sum by A(w, -sum of
  // boundary normals): equal up to the closure round-off of the dual. The
  // wave-speed sums keep the per-edge arithmetic and order, so they match
  // bit for bit; the oracle's SA row and column must be exactly decoupled.
  PoolGuard guard;
  const auto m = small_wing();
  nsu3d::LevelOptions lo;
  lo.num_levels = 3;
  const auto levels = nsu3d::build_levels(m, lo);
  ASSERT_EQ(levels.size(), 3u);
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.reynolds = 3e6;
  const auto phys = wing_physics(fc);
  const real_t cfl = nsu3d::Nsu3dOptions{}.cfl;
  using nsu3d::kernels::kSumStride;

  for (std::size_t l = 0; l < levels.size(); ++l) {
    const nsu3d::Level& lvl = levels[l];
    const auto u = wing_state(lvl, phys);
    smp::set_global_threads(1);
    nsu3d::kernels::Scratch os;
    std::vector<nsu3d::State> res;
    nsu3d::kernels::residual(lvl, phys, int(l), u, true, os, res);
    std::vector<real_t> wave;
    std::vector<linalg::BlockMat<6>> diag;
    smoother_blocks_oracle(lvl, phys, cfl, u, os, wave, diag);

    for (int threads : {1, 4}) {
      smp::set_global_threads(threads);
      nsu3d::kernels::Scratch s;
      nsu3d::kernels::residual(lvl, phys, int(l), u, true, s, res);
      nsu3d::kernels::smoother_blocks(lvl, phys, cfl, u, s);
      int boundary_nodes = 0;
      for (std::size_t i = 0; i < std::size_t(lvl.num_nodes); ++i) {
        ASSERT_EQ(s.sums[i * kSumStride], wave[i])
            << "level " << l << " t=" << threads << " node " << i;
        const linalg::BlockMat<6>& o = diag[i];
        for (int k = 0; k < 5; ++k) {
          EXPECT_EQ(o(5, k), 0.0) << "level " << l << " node " << i;
          EXPECT_EQ(o(k, 5), 0.0) << "level " << l << " node " << i;
        }
        const real_t tol = 1e-10 * o.max_abs();
        for (int rr = 0; rr < 5; ++rr)
          for (int cc = 0; cc < 5; ++cc)
            EXPECT_NEAR(s.diag[i](rr, cc), o(rr, cc), tol)
                << "level " << l << " t=" << threads << " node " << i
                << " entry " << rr << "," << cc;
        EXPECT_NEAR(s.diag_sa[i], o(5, 5), tol)
            << "level " << l << " t=" << threads << " node " << i;
        geom::Vec3 bn{};
        for (const geom::Vec3& t : lvl.boundary_normal[i]) bn += t;
        boundary_nodes += norm(bn) > 0;
      }
      EXPECT_GT(boundary_nodes, 0) << "level " << l;
    }
  }
}

/// Test-only oracle for line_sweep: the dense 6x6 block-tridiagonal line
/// solve it replaced, serial, on the diagonal blocks smoother_blocks built
/// (re-embedded as 6x6).
void line_sweep_oracle(const nsu3d::Level& lvl,
                       const nsu3d::kernels::Physics& phys, real_t relax,
                       const std::vector<nsu3d::State>& f,
                       const std::vector<nsu3d::State>& r,
                       const nsu3d::kernels::Scratch& s,
                       std::vector<nsu3d::State>& u) {
  using linalg::BlockMat;
  using linalg::BlockVec;
  const auto& w = s.w;
  const auto& mut = s.mut;
  for (std::size_t li = 0; li < lvl.lines.lines.size(); ++li) {
    const auto& line = lvl.lines.lines[li];
    const std::size_t len = line.size();
    std::vector<BlockMat<6>> lower(len), dd(len), upper(len);
    std::vector<BlockVec<6>> rhs(len);
    for (std::size_t k = 0; k < len; ++k) {
      const std::size_t i = std::size_t(line[k]);
      for (int rr = 0; rr < 5; ++rr)
        for (int cc = 0; cc < 5; ++cc) dd[k](rr, cc) = s.diag[i](rr, cc);
      dd[k](5, 5) = s.diag_sa[i];
      for (int c = 0; c < 6; ++c)
        rhs[k][c] = f[i][std::size_t(c)] - r[i][std::size_t(c)];
    }
    for (std::size_t k = 0; k + 1 < len; ++k) {
      const auto [eid, sgn] = lvl.line_edges[li][k];
      if (eid == kInvalidIndex) continue;
      const std::size_t ei = std::size_t(eid);
      const real_t area = lvl.edge_area[ei];
      if (area <= 0) continue;
      const std::size_t i = std::size_t(line[k]);
      const std::size_t j = std::size_t(line[k + 1]);
      const geom::Vec3 n_out = sgn * lvl.edge_normal[ei];
      const geom::Vec3 nh = sgn * lvl.edge_unit[ei];
      real_t cm = 0, cs = 0;
      const bool visc = phys.viscous && lvl.edge_geo[ei] > 0;
      if (visc) {
        const real_t geo = lvl.edge_geo[ei];
        cm = (phys.mu_lam + 0.5 * (mut[i] + mut[j])) * geo;
        cs = (phys.mu_lam + 0.5 * (u[i][5] + u[j][5])) /
             nsu3d::kernels::kSigma * geo;
      }
      const auto off = [&](std::size_t node, const geom::Vec3& nrm) {
        const BlockMat<5> jac = euler::flux_jacobian(w[node], nrm);
        const real_t lam = euler::spectral_radius(w[node], nh) * area;
        BlockMat<6> o;
        for (int rr = 0; rr < 5; ++rr) {
          for (int cc = 0; cc < 5; ++cc) o(rr, cc) = 0.5 * jac(rr, cc);
          o(rr, rr) -= 0.5 * lam;
        }
        o(5, 5) -= 0.5 * lam;
        if (visc) {
          for (int rr = 1; rr <= 4; ++rr) o(rr, rr) -= cm;
          o(5, 5) -= cs;
        }
        return o;
      };
      upper[k] = off(j, n_out);
      lower[k + 1] = off(i, -1.0 * n_out);
    }
    if (!linalg::solve_block_tridiag<6>(lower, dd, upper, rhs)) continue;
    for (std::size_t k = 0; k < len; ++k) {
      nsu3d::State& ui = u[std::size_t(line[k])];
      nsu3d::State unew = ui;
      for (int c = 0; c < 6; ++c) unew[std::size_t(c)] += relax * rhs[k][c];
      unew[5] = std::max<real_t>(unew[5], 0);
      if (nsu3d::kernels::state_valid(unew)) ui = unew;
    }
  }
}

TEST(Nsu3dSmoother, LineSweepMatchesSixBySixLineSolveBitwise) {
  // Given the same diagonal blocks, the 5x5 + scalar line solves must
  // reproduce the dense 6x6 line solve bit for bit at every pool width:
  // the SA row and column hold exact zeros off the diagonal.
  PoolGuard guard;
  const auto m = small_wing();
  nsu3d::LevelOptions lo;
  lo.num_levels = 1;
  const auto levels = nsu3d::build_levels(m, lo);
  const nsu3d::Level& lvl = levels[0];
  ASSERT_GT(lvl.lines.longest(), 2);
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.reynolds = 3e6;
  const auto phys = wing_physics(fc);
  const nsu3d::Nsu3dOptions opt;
  const auto u0 = wing_state(lvl, phys);
  std::vector<nsu3d::State> f(u0.size());
  for (std::size_t i = 0; i < f.size(); ++i)
    for (std::size_t c = 0; c < 6; ++c)
      f[i][c] = 1e-3 * std::sin(real_t(7 * i + c));

  for (int threads : {1, 3, 4}) {
    smp::set_global_threads(threads);
    nsu3d::kernels::Scratch s;
    std::vector<nsu3d::State> r;
    nsu3d::kernels::residual(lvl, phys, 0, u0, true, s, r);
    nsu3d::kernels::smoother_blocks(lvl, phys, opt.cfl, u0, s);
    std::vector<nsu3d::State> want = u0, got = u0;
    line_sweep_oracle(lvl, phys, opt.relax, f, r, s, want);
    nsu3d::kernels::line_sweep(lvl, phys, opt.relax, f, r, s, got);
    std::size_t moved = 0;
    for (std::size_t i = 0; i < u0.size(); ++i) {
      moved += got[i] != u0[i];
      for (std::size_t c = 0; c < 6; ++c)
        ASSERT_EQ(got[i][c], want[i][c])
            << "t=" << threads << " node " << i << " comp " << c;
    }
    EXPECT_GT(moved, u0.size() / 2) << "t=" << threads;
  }
}

TEST(Nsu3dSoA, OwnedSubsetMatchesWholeLevelBitwise) {
  // Owner-computes fine level: on random line-respecting partitions, a
  // scratch restricted to one part's nodes must give that part's residual
  // rows, diagonal blocks and line-sweep updates exactly as the whole-level
  // kernels do, and leave every other row of the updated state alone.
  PoolGuard guard;
  const auto m = small_wing();
  nsu3d::LevelOptions lo;
  lo.num_levels = 1;
  const auto levels = nsu3d::build_levels(m, lo);
  const nsu3d::Level& lvl = levels[0];
  ASSERT_GT(lvl.lines.longest(), 2);
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.reynolds = 3e6;
  const auto phys = wing_physics(fc);
  const nsu3d::Nsu3dOptions opt;
  const auto u0 = wing_state(lvl, phys);
  std::vector<nsu3d::State> f(u0.size());
  for (std::size_t i = 0; i < f.size(); ++i)
    for (std::size_t c = 0; c < 6; ++c)
      f[i][c] = 1e-3 * std::cos(real_t(5 * i + c));
  const std::size_t n = u0.size();
  using nsu3d::kernels::kSumStride;

  Xoshiro256 rng(20261019);
  for (int trial = 0; trial < 3; ++trial) {
    // Whole lines to random parts; the first lines seed every part.
    const std::size_t nparts = 2 + std::size_t(rng.below(3));
    std::vector<index_t> part(n, 0);
    const auto& lines = lvl.lines.lines;
    for (std::size_t li = 0; li < lines.size(); ++li) {
      const index_t p = index_t(li < nparts ? li : rng.below(nparts));
      for (const index_t v : lines[li]) part[std::size_t(v)] = p;
    }
    ASSERT_TRUE(nsu3d::lines_unbroken(lvl, part));

    for (int threads : {1, 3}) {
      smp::set_global_threads(threads);
      nsu3d::kernels::Scratch whole;
      std::vector<nsu3d::State> r_whole;
      nsu3d::kernels::residual(lvl, phys, 0, u0, true, whole, r_whole);
      nsu3d::kernels::smoother_blocks(lvl, phys, opt.cfl, u0, whole);
      std::vector<nsu3d::State> u_whole = u0;
      nsu3d::kernels::line_sweep(lvl, phys, opt.relax, f, r_whole, whole,
                                 u_whole);

      for (std::size_t p = 0; p < nparts; ++p) {
        std::vector<char> owned(n, 0);
        for (std::size_t v = 0; v < n; ++v) owned[v] = part[v] == index_t(p);
        nsu3d::kernels::Scratch sub;
        sub.set_owned(lvl, owned);
        ASSERT_TRUE(sub.subset());
        ASSERT_GT(sub.ring.size(), sub.rows.size());
        std::vector<nsu3d::State> r_sub;
        nsu3d::kernels::residual(lvl, phys, 0, u0, true, sub, r_sub);
        nsu3d::kernels::smoother_blocks(lvl, phys, opt.cfl, u0, sub);
        std::vector<nsu3d::State> u_sub = u0;
        nsu3d::kernels::line_sweep(lvl, phys, opt.relax, f, r_sub, sub,
                                   u_sub);
        std::size_t moved = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const auto where = [&] {
            return "trial " + std::to_string(trial) + " parts " +
                   std::to_string(nparts) + " part " + std::to_string(p) +
                   " t=" + std::to_string(threads) + " node " +
                   std::to_string(i);
          };
          if (!owned[i]) {
            ASSERT_EQ(u_sub[i], u0[i]) << where();
            continue;
          }
          moved += u_sub[i] != u0[i];
          ASSERT_EQ(r_sub[i], r_whole[i]) << where();
          ASSERT_EQ(u_sub[i], u_whole[i]) << where();
          ASSERT_EQ(sub.diag[i].a, whole.diag[i].a) << where();
          ASSERT_EQ(sub.diag_sa[i], whole.diag_sa[i]) << where();
          for (std::size_t c = 0; c < kSumStride; ++c)
            ASSERT_EQ(sub.sums[i * kSumStride + c],
                      whole.sums[i * kSumStride + c])
                << where() << " sum " << c;
        }
        EXPECT_GT(moved, sub.rows.size() / 2);
      }
    }
  }
}

TEST(Nsu3dSoA, HaloStrategiesBitIdenticalWithPackedComponents) {
  // The component-major halo packing reorders only copies; both exchange
  // strategies must still deliver bit-identical residuals.
  PoolGuard guard;
  smp::set_global_threads(4);
  const auto m = small_wing();
  nsu3d::LevelOptions lo;
  lo.num_levels = 1;
  const auto levels = nsu3d::build_levels(m, lo);
  const nsu3d::Level& lvl = levels[0];
  euler::FlowConditions fc;
  fc.mach = 0.6;
  const auto phys = wing_physics(fc);
  const auto u = wing_state(lvl, phys);
  const euler::Prim inf = fc.freestream();

  const auto plan = nsu3d::build_partition_plan(levels, 4);
  const auto& part = plan.levels[0].part;
  const auto t2t = nsu3d::parallel_residual(lvl, u, inf, part, 4);
  const auto master = nsu3d::parallel_residual(
      lvl, u, inf, part, 4, {ExchangeStrategy::MasterThread, 2});
  EXPECT_EQ(t2t, master);
}

// --- Cart3D ---

cartesian::CartMesh sphere_mesh() {
  const auto sphere = geom::make_sphere({0, 0, 0}, 0.4, 16, 32);
  geom::Aabb dom;
  dom.expand({-1.5, -1.5, -1.5});
  dom.expand({1.5, 1.5, 1.5});
  cartesian::CartMeshOptions mopt;
  mopt.base_n = 8;
  mopt.max_level = 2;
  return cartesian::build_cart_mesh(sphere, dom, mopt);
}

std::vector<euler::Cons> sphere_state(const cartesian::CartMesh& m,
                                      const euler::Prim& inf) {
  std::vector<euler::Cons> u(m.cells.size());
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    euler::Prim w = inf;
    const geom::Vec3 x = m.cell_center(m.cells[i]);
    w.rho *= 1.0 + 0.04 * std::sin(1.3 * x.x + 0.5 * x.y);
    w.p *= 1.0 + 0.04 * std::cos(0.9 * x.z);
    u[i] = euler::to_conservative(w);
  }
  return u;
}

TEST(Cart3dSoA, ResidualMatchesReferenceBitwiseAcrossThreads) {
  PoolGuard guard;
  const auto m = sphere_mesh();
  euler::FlowConditions fc;
  fc.mach = 0.5;
  fc.alpha_deg = 2.0;
  const euler::Prim inf = fc.freestream();
  const auto u = sphere_state(m, inf);

  cart3d::kernels::LevelGeom geomc;
  geomc.build(m);

  for (bool second_order : {true, false}) {
    smp::set_global_threads(1);
    cart3d::kernels::ReferenceScratch rs;
    std::vector<euler::Cons> ref;
    cart3d::kernels::residual_reference(m, inf, euler::FluxScheme::Roe, u,
                                        second_order, rs, ref);

    for (int threads : {1, 2, 3, 4}) {
      smp::set_global_threads(threads);
      cart3d::kernels::Scratch s;
      std::vector<euler::Cons> res;
      cart3d::kernels::residual(geomc, m, inf, euler::FluxScheme::Roe, u,
                                second_order, s, res);
      ASSERT_EQ(res.size(), ref.size());
      for (std::size_t i = 0; i < res.size(); ++i)
        for (int c = 0; c < 5; ++c)
          EXPECT_EQ(res[i][std::size_t(c)], ref[i][std::size_t(c)])
              << "order " << second_order << " t=" << threads << " cell "
              << i << " comp " << c;
    }
  }
}

TEST(Cart3dSoA, HaloStrategiesBitIdenticalWithPackedComponents) {
  PoolGuard guard;
  smp::set_global_threads(4);
  const auto m = sphere_mesh();
  euler::FlowConditions fc;
  fc.mach = 0.5;
  fc.alpha_deg = 2.0;
  const euler::Prim inf = fc.freestream();
  const auto u = sphere_state(m, inf);

  const auto part = cartesian::partition_cells(m, 4);
  const auto t2t = cart3d::parallel_residual(m, u, inf, part, 4);
  const auto master =
      cart3d::parallel_residual(m, u, inf, part, 4, euler::FluxScheme::Roe,
                                {ExchangeStrategy::MasterThread, 2});
  EXPECT_EQ(t2t, master);
}

// --- Block solves ---

template <int N>
linalg::BlockMat<N> random_mat(Xoshiro256& rng, real_t diag_boost) {
  linalg::BlockMat<N> m;
  for (int i = 0; i < N; ++i)
    for (int j = 0; j < N; ++j) m(i, j) = rng.uniform(-1, 1);
  for (int i = 0; i < N; ++i) m(i, i) += diag_boost;
  return m;
}

template <int N>
linalg::BlockVec<N> random_vec(Xoshiro256& rng) {
  linalg::BlockVec<N> v;
  for (int i = 0; i < N; ++i) v[i] = rng.uniform(-1, 1);
  return v;
}

TEST(BlockSolvesSoA, MsubMatchesTempFormBitwise) {
  // msub promises exactly `r -= m * x` / `r -= x * y` without the
  // temporary; the accumulation order inside is identical, so the results
  // must be bit-equal, not merely close.
  Xoshiro256 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const auto m = random_mat<6>(rng, 0.0);
    const auto x = random_vec<6>(rng);
    auto r1 = random_vec<6>(rng);
    auto r2 = r1;
    linalg::msub(r1, m, x);
    r2 -= m * x;
    for (int i = 0; i < 6; ++i) EXPECT_EQ(r1[i], r2[i]) << trial << "/" << i;

    const auto a = random_mat<6>(rng, 0.0);
    const auto b = random_mat<6>(rng, 0.0);
    auto m1 = random_mat<6>(rng, 0.0);
    auto m2 = m1;
    linalg::msub(m1, a, b);
    m2 -= a * b;
    for (int i = 0; i < 6; ++i)
      for (int j = 0; j < 6; ++j)
        EXPECT_EQ(m1(i, j), m2(i, j)) << trial << "/" << i << "," << j;
  }
}

TEST(BlockSolvesSoA, MatrixSolveMatchesColumnSolvesBitwise) {
  // BlockLU::solve(BlockMat) advances all columns together; per element it
  // must apply the identical update chain a column-by-column solve would.
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = random_mat<6>(rng, 3.0);
    const auto b = random_mat<6>(rng, 0.0);
    linalg::BlockLU<6> lu;
    ASSERT_TRUE(lu.factor(a));
    const auto x = lu.solve(b);
    for (int c = 0; c < 6; ++c) {
      linalg::BlockVec<6> col;
      for (int i = 0; i < 6; ++i) col[i] = b(i, c);
      const auto xc = lu.solve(col);
      for (int i = 0; i < 6; ++i) EXPECT_EQ(x(i, c), xc[i]) << trial;
    }
  }
}

/// The pre-msub block-tridiagonal formulation, kept verbatim as the
/// reference the production solver must reproduce bitwise.
template <int N>
bool solve_block_tridiag_naive(std::vector<linalg::BlockMat<N>>& lower,
                               std::vector<linalg::BlockMat<N>>& diag,
                               std::vector<linalg::BlockMat<N>>& upper,
                               std::vector<linalg::BlockVec<N>>& rhs) {
  const std::size_t n = diag.size();
  if (n == 0) return true;
  std::vector<linalg::BlockLU<N>> lu(n);
  if (!lu[0].factor(diag[0])) return false;
  for (std::size_t i = 1; i < n; ++i) {
    const linalg::BlockMat<N> m = lu[i - 1].solve(upper[i - 1]);
    diag[i] -= lower[i] * m;
    const linalg::BlockVec<N> r = lu[i - 1].solve(rhs[i - 1]);
    rhs[i] -= lower[i] * r;
    if (!lu[i].factor(diag[i])) return false;
  }
  rhs[n - 1] = lu[n - 1].solve(rhs[n - 1]);
  for (std::size_t i = n - 1; i-- > 0;) {
    linalg::BlockVec<N> r = rhs[i];
    r -= upper[i] * rhs[i + 1];
    rhs[i] = lu[i].solve(r);
  }
  return true;
}

TEST(BlockSolvesSoA, TridiagMatchesNaiveFormulationBitwise) {
  Xoshiro256 rng(19);
  for (std::size_t n : {1u, 2u, 5u, 16u}) {
    std::vector<linalg::BlockMat<6>> lo(n), dg(n), up(n);
    std::vector<linalg::BlockVec<6>> rhs(n);
    for (std::size_t i = 0; i < n; ++i) {
      lo[i] = random_mat<6>(rng, 0.0);
      dg[i] = random_mat<6>(rng, 5.0);
      up[i] = random_mat<6>(rng, 0.0);
      rhs[i] = random_vec<6>(rng);
    }
    auto lo2 = lo;
    auto dg2 = dg;
    auto up2 = up;
    auto rhs2 = rhs;
    ASSERT_TRUE(linalg::solve_block_tridiag<6>(lo, dg, up, rhs));
    ASSERT_TRUE(solve_block_tridiag_naive<6>(lo2, dg2, up2, rhs2));
    for (std::size_t i = 0; i < n; ++i)
      for (int c = 0; c < 6; ++c)
        EXPECT_EQ(rhs[i][c], rhs2[i][c]) << "n=" << n << " row " << i;
  }
}

TEST(BlockSolvesSoA, DecoupledSaSplitMatchesSixBySixBitwise) {
  // NSU3D's SA row and column couple to nothing else, so a 6x6 line solve
  // equals a 5x5 block solve plus a scalar one, bit for bit — for the
  // block-tridiagonal line solve and for the point solve alike.
  Xoshiro256 rng(23);
  const auto decouple = [](linalg::BlockMat<6>& m) {
    for (int k = 0; k < 5; ++k) m(5, k) = m(k, 5) = 0;
  };
  const auto mean_block = [](const linalg::BlockMat<6>& m) {
    linalg::BlockMat<5> b;
    for (int rr = 0; rr < 5; ++rr)
      for (int cc = 0; cc < 5; ++cc) b(rr, cc) = m(rr, cc);
    return b;
  };
  // Many lines: a one-ulp change in the elimination order shows in only a
  // few percent of the solved values.
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = std::size_t(1 + trial % 16);
    std::vector<linalg::BlockMat<6>> lo(n), dg(n), up(n);
    std::vector<linalg::BlockVec<6>> rhs(n);
    std::vector<linalg::BlockMat<5>> lo5(n), dg5(n), up5(n);
    std::vector<linalg::BlockVec<5>> rhs5(n);
    std::vector<real_t> los(n), dgs(n), ups(n), rhss(n);
    for (std::size_t i = 0; i < n; ++i) {
      lo[i] = random_mat<6>(rng, 0.0);
      dg[i] = random_mat<6>(rng, 5.0);
      up[i] = random_mat<6>(rng, 0.0);
      rhs[i] = random_vec<6>(rng);
      for (auto* m : {&lo[i], &dg[i], &up[i]}) decouple(*m);
      lo5[i] = mean_block(lo[i]);
      dg5[i] = mean_block(dg[i]);
      up5[i] = mean_block(up[i]);
      for (int c = 0; c < 5; ++c) rhs5[i][c] = rhs[i][c];
      los[i] = lo[i](5, 5);
      dgs[i] = dg[i](5, 5);
      ups[i] = up[i](5, 5);
      rhss[i] = rhs[i][5];
    }

    // Point solve of the first row's diagonal block.
    linalg::BlockLU<6> lu6;
    linalg::BlockLU<5> lu5;
    ASSERT_TRUE(lu6.factor(dg[0]));
    ASSERT_TRUE(lu5.factor(dg5[0]));
    const auto x6 = lu6.solve(rhs[0]);
    const auto x5 = lu5.solve(rhs5[0]);
    for (int c = 0; c < 5; ++c) EXPECT_EQ(x5[c], x6[c]) << "n=" << n;
    EXPECT_EQ(rhss[0] / dgs[0], x6[5]) << "n=" << n;

    std::vector<linalg::BlockLU<5>> lu;
    ASSERT_TRUE(linalg::solve_block_tridiag<6>(lo, dg, up, rhs));
    ASSERT_TRUE(linalg::solve_block_tridiag_status<5>(lo5, dg5, up5, rhs5, lu));
    ASSERT_TRUE(linalg::solve_tridiag(los, dgs, ups, rhss));
    for (std::size_t i = 0; i < n; ++i) {
      for (int c = 0; c < 5; ++c)
        EXPECT_EQ(rhs5[i][c], rhs[i][c]) << "n=" << n << " row " << i;
      EXPECT_EQ(rhss[i], rhs[i][5]) << "n=" << n << " row " << i;
    }
  }
}

TEST(BlockSolvesSoA, ScalarTridiagReportsTinyPivot) {
  // The scalar solve shares BlockLU's singularity threshold.
  std::vector<real_t> lo{0, 1, 1}, dg{2, 0.5, 2}, up{1, 1, 0}, rhs{1, 1, 1};
  EXPECT_FALSE(linalg::solve_tridiag(lo, dg, up, rhs));  // 0.5 - 1 * 0.5 = 0
  std::vector<real_t> dg0{1e-301, 1, 1};
  EXPECT_FALSE(linalg::solve_tridiag(lo, dg0, up, rhs));
}

}  // namespace
}  // namespace columbia
