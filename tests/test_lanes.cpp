// Lane-generic kernels: the four-lane (AVX2) instantiations of Roe's flux
// and of the Venkatakrishnan limiter must reproduce the one-lane values
// bit for bit, on random states and on the inputs where a careless
// vectorization changes bits (signed zeros, the a^2 clamp, the entropy-fix
// threshold, the limiter's +-1e-14 band, den <= 0, NaN). And Cart3D's
// residual, whose limiter and flux sweeps run four faces per step on
// AVX2, must equal residual_reference bitwise with both lane counts at
// pool widths 1, 3 and 4 on a mesh whose face count is not a multiple of
// four. The one-lane checks run on every CPU; the four-lane ones skip
// where AVX2 is missing.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "cart3d/kernels.hpp"
#include "cartesian/cart_mesh.hpp"
#include "euler/flux.hpp"
#include "euler/lanes.hpp"
#include "geom/components.hpp"
#include "smp/pool.hpp"

namespace columbia {

#if COLUMBIA_LANES4
// The four-lane instantiations under test: the same source the Cart3D
// face sweeps compile in their AVX2 region.
#pragma GCC push_options
#pragma GCC target("avx2")
namespace lanes4_test {
#include "euler/lane_kernels.inc"

using euler::Lanes4;

/// Roe fluxes of four faces, one per lane.
void roe4(const euler::Prim* l, const euler::Prim* r, const geom::Vec3* n,
          euler::Cons* out) {
  auto lanes = [](auto&& f) { return Lanes4{f(0), f(1), f(2), f(3)}; };
  auto prim = [&](const euler::Prim* w) {
    return LanePrim<Lanes4>{
        lanes([&](int j) { return w[j].rho; }),
        {lanes([&](int j) { return w[j].vel.x; }),
         lanes([&](int j) { return w[j].vel.y; }),
         lanes([&](int j) { return w[j].vel.z; })},
        lanes([&](int j) { return w[j].p; })};
  };
  const LaneVec3<Lanes4> nv{lanes([&](int j) { return n[j].x; }),
                            lanes([&](int j) { return n[j].y; }),
                            lanes([&](int j) { return n[j].z; })};
  const std::array<Lanes4, 5> f = roe_flux(prim(l), prim(r), nv);
  for (int j = 0; j < 4; ++j)
    for (std::size_t c = 0; c < 5; ++c) out[j][c] = f[c][j];
}

/// venkat_side of four inputs (dq, q, qmin, qmax, eps2), one per lane.
void venkat4(const std::array<real_t, 5>* in, real_t* out) {
  auto lanes = [&](std::size_t k) {
    return Lanes4{in[0][k], in[1][k], in[2][k], in[3][k]};
  };
  const Lanes4 v = venkat_side(lanes(0), lanes(1), lanes(2), lanes(3),
                               lanes(4));
  for (int j = 0; j < 4; ++j) out[j] = v[j];
}
}  // namespace lanes4_test
#pragma GCC pop_options
#endif

namespace {

std::uint64_t bits(real_t x) { return std::bit_cast<std::uint64_t>(x); }

constexpr real_t kNaN = std::numeric_limits<real_t>::quiet_NaN();

struct Face {
  euler::Prim l, r;
  geom::Vec3 n;
};

/// Random face states, every few faces replaced by an edge case.
std::vector<Face> roe_cases(std::size_t count) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<real_t> u(-1, 1);
  auto prim = [&] {
    return euler::Prim{1 + 0.9 * u(rng), {u(rng), u(rng), u(rng)},
                       0.7 + 0.6 * u(rng)};
  };
  std::vector<Face> faces(count);
  for (std::size_t i = 0; i < count; ++i) {
    Face& f = faces[i];
    f.l = prim();
    f.r = prim();
    const int axis = int(rng() % 4);
    f.n = axis == 3 ? geom::normalized(geom::Vec3{u(rng), u(rng), u(rng)})
                    : geom::Vec3{};
    if (axis == 0) f.n.x = 1;
    if (axis == 1) f.n.y = 1;
    if (axis == 2) f.n.z = 1;
    switch (i % 16) {
      case 0:  // signed-zero velocities
        f.l.vel = {-0.0, 0.0, -0.0};
        f.r.vel = {0.0, -0.0, -0.0};
        break;
      case 1:  // Roe-averaged a^2 below the 1e-12 clamp
        f.l.p = f.r.p = 1e-14;
        f.r.vel = f.l.vel;
        break;
      case 2:  // |u.n| - a straddles the entropy-fix eps = 0.1 a (a = 1)
        f.l = f.r = {1.0, {1.1, 0, 0}, 1.0 / 1.4};
        f.n = {1, 0, 0};
        f.r.vel.x *= 1.0 + 1e-9 * u(rng);
        break;
      case 3:  // sonic point: un - a straddles zero
        f.l.vel = {std::sqrt(1.4 * f.l.p / f.l.rho), 0, 0};
        f.r = f.l;
        f.r.p *= 1.0 + 1e-6 * u(rng);
        f.n = {1, 0, 0};
        break;
      case 4: f.l.vel.y = kNaN; break;
      case 5: f.r.rho = kNaN; break;
      case 6: f.l.p = -f.l.p; break;  // negative pressure: NaN sound speed
      case 7: f.r = f.l; break;        // consistency: F(w, w) = physical flux
      default: break;
    }
  }
  return faces;
}

TEST(Lanes, RoeOneLaneIsTheEulerRoeFlux) {
  // The one-lane instantiation is what NSU3D, Cart3D and the farfield call
  // through euler::roe_flux: a direct call gives the same bits.
  for (const Face& f : roe_cases(4096)) {
    const euler::Cons a = euler::roe_flux(f.l, f.r, f.n);
    const std::array<real_t, 5> b = euler::roe_flux(
        euler::LanePrim<real_t>{f.l.rho, {f.l.vel.x, f.l.vel.y, f.l.vel.z},
                                f.l.p},
        euler::LanePrim<real_t>{f.r.rho, {f.r.vel.x, f.r.vel.y, f.r.vel.z},
                                f.r.p},
        euler::LaneVec3<real_t>{f.n.x, f.n.y, f.n.z});
    for (std::size_t c = 0; c < 5; ++c) EXPECT_EQ(bits(a[c]), bits(b[c]));
  }
}

TEST(Lanes, RoeFourLanesMatchOneLaneBitwise) {
#if COLUMBIA_LANES4
  if (!euler::lanes4_supported()) GTEST_SKIP() << "no AVX2 on this CPU";
  const std::vector<Face> faces = roe_cases(65536);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < faces.size(); i += 4) {
    euler::Prim l[4], r[4];
    geom::Vec3 n[4];
    for (std::size_t j = 0; j < 4; ++j) {
      l[j] = faces[i + j].l;
      r[j] = faces[i + j].r;
      n[j] = faces[i + j].n;
    }
    euler::Cons f4[4];
    lanes4_test::roe4(l, r, n, f4);
    for (std::size_t j = 0; j < 4; ++j) {
      const euler::Cons f1 = euler::roe_flux(l[j], r[j], n[j]);
      for (std::size_t c = 0; c < 5; ++c)
        if (bits(f1[c]) != bits(f4[j][c])) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
#else
  GTEST_SKIP() << "no four-lane instantiation on this architecture";
#endif
}

/// venkat_side inputs (dq, q, qmin, qmax, eps2): random, then edge cases.
std::vector<std::array<real_t, 5>> venkat_cases() {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<real_t> u(-1, 1);
  std::vector<std::array<real_t, 5>> in;
  for (int i = 0; i < 40000; ++i) {
    const real_t q = u(rng);
    const real_t scale = std::pow(10.0, -16 + 16 * (0.5 + 0.5 * u(rng)));
    in.push_back({scale * u(rng), q, q - std::abs(u(rng)),
                  q + std::abs(u(rng)), 1e-6 * (1 + u(rng))});
  }
  const real_t q = 0.5, lo = 0.25, hi = 0.75, e2 = 1e-4;
  for (const real_t dq :
       {1e-14, -1e-14, std::nextafter(1e-14, 1.0), std::nextafter(-1e-14, -1.0),
        0.0, -0.0, 1.0, -1.0, kNaN})
    in.push_back({dq, q, lo, hi, e2});
  in.push_back({0.3, q, lo, q - 0.2, -1.0});  // den <= 0: unlimited
  in.push_back({0.3, q, lo, hi, -0.2});       // den < 0 from eps2
  in.push_back({0.3, kNaN, lo, hi, e2});
  in.push_back({-0.3, q, kNaN, hi, e2});
  in.push_back({0.3, q, lo, hi, kNaN});
  in.push_back({0.3, q, q, q, 0.0});  // dplus = 0, eps2 = 0
  while (in.size() % 4) in.push_back(in.back());
  return in;
}

TEST(Lanes, VenkatSideMatchesTheBranchyLimiter) {
  // venkat_side's one-lane form against the branches the kernels wrote
  // before: lim = 1 inside +-1e-14, else venkat of the bound on dq's side.
  for (const auto& x : venkat_cases()) {
    const real_t dq = x[0], q = x[1], qmin = x[2], qmax = x[3], eps2 = x[4];
    real_t lim = 1.0;
    if (dq > 1e-14)
      lim = euler::venkat(qmax - q, dq, eps2);
    else if (dq < -1e-14)
      lim = euler::venkat(q - qmin, -dq, eps2);
    EXPECT_EQ(bits(lim), bits(euler::venkat_side(dq, q, qmin, qmax, eps2)));
  }
}

TEST(Lanes, VenkatFourLanesMatchOneLaneBitwise) {
#if COLUMBIA_LANES4
  if (!euler::lanes4_supported()) GTEST_SKIP() << "no AVX2 on this CPU";
  const auto in = venkat_cases();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < in.size(); i += 4) {
    real_t out[4];
    lanes4_test::venkat4(&in[i], out);
    for (std::size_t j = 0; j < 4; ++j) {
      const auto& x = in[i + j];
      if (bits(euler::venkat_side(x[0], x[1], x[2], x[3], x[4])) !=
          bits(out[j]))
        ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
#else
  GTEST_SKIP() << "no four-lane instantiation on this architecture";
#endif
}

struct PoolGuard {
  ~PoolGuard() { smp::set_global_threads(1); }
};

TEST(Lanes, Cart3dResidualMatchesReferenceForBothLaneCounts) {
  PoolGuard guard;
  geom::Aabb dom;
  dom.expand({-1.5, -1.5, -1.5});
  dom.expand({1.5, 1.5, 1.5});
  cartesian::CartMeshOptions mopt;
  mopt.base_n = 7;
  mopt.max_level = 2;
  const auto m = cartesian::build_cart_mesh(
      geom::make_sphere({0, 0, 0}, 0.4, 16, 32), dom, mopt);
  // Groups of four leave a short tail on the whole list.
  ASSERT_NE(m.faces.size() % 4, 0u);

  euler::FlowConditions fc;
  fc.mach = 0.5;
  fc.alpha_deg = 3.0;
  const euler::Prim inf = fc.freestream();
  // Strong, rough perturbations: the limiter takes every branch and some
  // reconstructions fall back to the cell mean.
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<real_t> jitter(-1, 1);
  std::vector<euler::Cons> u(m.cells.size());
  for (std::size_t i = 0; i < u.size(); ++i) {
    euler::Prim w = inf;
    const geom::Vec3 x = m.cell_center(m.cells[i]);
    w.rho *= 1.0 + 0.3 * std::sin(3.1 * x.x + 1.7 * x.y) + 0.05 * jitter(rng);
    w.vel.y += 0.2 * jitter(rng);
    w.p *= 1.0 + 0.3 * std::cos(2.3 * x.z) + 0.05 * jitter(rng);
    if (i % 7 == 0) w.vel.x = -0.0;
    u[i] = euler::to_conservative(w);
  }

  cart3d::kernels::LevelGeom g;
  g.build(m);
  std::vector<int> lane_counts{1};
  if (euler::lanes4_supported()) lane_counts.push_back(4);
  for (bool second_order : {true, false}) {
    smp::set_global_threads(1);
    cart3d::kernels::ReferenceScratch rs;
    std::vector<euler::Cons> ref;
    cart3d::kernels::residual_reference(m, inf, euler::FluxScheme::Roe, u,
                                        second_order, rs, ref);
    for (const int lanes : lane_counts)
      for (const int threads : {1, 3, 4}) {
        smp::set_global_threads(threads);
        cart3d::kernels::Scratch s;
        std::vector<euler::Cons> res;
        cart3d::kernels::residual(g, m, inf, euler::FluxScheme::Roe, u,
                                  second_order, s, res, lanes);
        ASSERT_EQ(res.size(), ref.size());
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < res.size(); ++i)
          for (std::size_t c = 0; c < 5; ++c)
            if (bits(res[i][c]) != bits(ref[i][c])) ++mismatches;
        EXPECT_EQ(mismatches, 0u) << "order " << second_order << " lanes "
                                  << lanes << " threads " << threads;
      }
  }
}

}  // namespace
}  // namespace columbia
