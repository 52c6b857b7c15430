#include "nsu3d/kernels.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "euler/jacobian.hpp"
#include "linalg/block_tridiag.hpp"
#include "obs/obs.hpp"
#include "smp/owners.hpp"
#include "smp/pool.hpp"
#include "support/assert.hpp"

namespace columbia::nsu3d::kernels {

using euler::Prim;
using geom::Vec3;
using linalg::BlockLU;
using linalg::BlockMat;
using linalg::BlockVec;

namespace {

// Chunk grains for the pooled node/line loops; fixed constants so chunk
// boundaries — and with them floating-point combine order — never depend
// on the thread count (see smp::ThreadPool's determinism contract).
constexpr std::size_t kNodeGrain = 256;
constexpr std::size_t kLineGrain = 2;

/// Runs `body(e, own_a, own_b)` over every edge as one pool job over the
/// level's owner lists (see smp::for_edges_owned).
template <class Fn>
void for_edges_owned(const Level& lvl, Scratch& s, Fn&& body) {
  smp::for_edges_owned(edge_owners(lvl, s), std::forward<Fn>(body));
}

/// Elementwise (no cross-index writes) loop over [0, n).
template <class Fn>
void for_nodes(std::size_t n, Fn&& body) {
  smp::ThreadPool::global().parallel_for(
      0, n, kNodeGrain, [&](std::size_t b, std::size_t e, int) {
        for (std::size_t i = b; i < e; ++i) body(i);
      });
}

/// Compile-time Riemann-solver dispatch so the flux sweep inlines the
/// scheme body instead of branching per edge.
template <euler::FluxScheme S>
euler::Cons scheme_flux(const Prim& l, const Prim& r, const Vec3& n) {
  if constexpr (S == euler::FluxScheme::Roe) return euler::roe_flux(l, r, n);
  if constexpr (S == euler::FluxScheme::VanLeer)
    return euler::van_leer_flux(l, r, n);
  return euler::rusanov_flux(l, r, n);
}

real_t venkat(real_t dplus, real_t dq, real_t eps2) {
  const real_t num = (dplus * dplus + eps2) + 2.0 * dplus * dq;
  const real_t den = dplus * dplus + 2.0 * dq * dq + dplus * dq + eps2;
  return den > 0 ? num / den : 1.0;
}

// Edge-sweep inner bodies, hoisted into functions whose pointer parameters
// carry __restrict: GCC honors parameter-level restrict without emitting
// runtime alias-check loop versions (edge endpoints are distinct nodes, so
// the a/b blocks never overlap). Each 6-wide component loop then
// vectorizes unconditionally — elementwise, no reassociation.
template <bool MinMax, bool A, bool B>
inline void grad_edge(real_t* __restrict ga, real_t* __restrict gbb,
                      const real_t* __restrict pa,
                      const real_t* __restrict pbv, real_t enx, real_t eny,
                      real_t enz) {
  for (std::size_t c = 0; c < 6; ++c) {
    const real_t qa = pa[c], qb = pbv[c];
    const real_t qf = 0.5 * (qa + qb);
    if constexpr (A) {
      ga[c] += qf * enx;
      ga[6 + c] += qf * eny;
      ga[12 + c] += qf * enz;
    }
    if constexpr (B) {
      gbb[c] -= qf * enx;
      gbb[6 + c] -= qf * eny;
      gbb[12 + c] -= qf * enz;
    }
    if constexpr (MinMax && A) {
      ga[18 + c] = std::min(ga[18 + c], qb);
      ga[24 + c] = std::max(ga[24 + c], qb);
    }
    if constexpr (MinMax && B) {
      gbb[18 + c] = std::min(gbb[18 + c], qa);
      gbb[24 + c] = std::max(gbb[24 + c], qa);
    }
  }
}

/// Directional differences g . (+-d) for both sides of one edge, stored in
/// the per-edge stream. Side a looks along +d, side b along -d;
/// (-g)·d = -(g·d) exactly, so negating the precomputed half-offset
/// matches the scalar path.
inline void limiter_dq(real_t* __restrict ed, const real_t* __restrict ga,
                       const real_t* __restrict gbb, real_t dxe, real_t dye,
                       real_t dze) {
  for (std::size_t c = 0; c < 6; ++c) {
    ed[c] = (ga[c] * dxe + ga[6 + c] * dye) + ga[12 + c] * dze;
    ed[6 + c] = (gbb[c] * -dxe + gbb[6 + c] * -dye) + gbb[12 + c] * -dze;
  }
}

/// Limited linear reconstruction of both edge sides from the prim blocks,
/// the phi blocks, and the cached directional differences.
inline void recon_edge(real_t* __restrict ql, real_t* __restrict qr,
                       const real_t* __restrict pa,
                       const real_t* __restrict pbv,
                       const real_t* __restrict pha,
                       const real_t* __restrict phb,
                       const real_t* __restrict ed) {
  for (std::size_t c = 0; c < 6; ++c) {
    ql[c] = pa[c] + pha[c] * ed[c];
    qr[c] = pbv[c] + phb[c] * ed[6 + c];
  }
}

}  // namespace

void Scratch::resize(const Level& lvl) {
  n = std::size_t(lvl.num_nodes);
  w.resize(n);
  nut.resize(n);
  mut.resize(n);
  pb.resize(n * kPrimStride);
  gb.resize(n * kGradStride);
  ph.resize(n * kPhiStride);
  edq.resize(lvl.edges.size() * kEdqStride);
}

const smp::EdgeOwners& edge_owners(const Level& lvl, Scratch& s) {
  return s.owners.fit(std::size_t(lvl.num_nodes), lvl.edge_a, lvl.edge_b);
}

namespace {

/// prim_cache body with optional fused seeding of the gradient/phi blocks
/// and zeroing of the residual — pure stores to fields nothing reads until
/// the later phases, so riding along in this pass is bit-neutral and saves
/// whole-array sweeps in the composed residual().
template <bool SeedGrad, bool SeedMinmax, bool ZeroRes>
void prim_cache_impl(const Level& lvl, const Physics& phys,
                     std::span<const State> u, Scratch& s,
                     std::vector<State>* res) {
  const std::size_t n = std::size_t(lvl.num_nodes);
  Prim* const w = s.w.data();
  real_t* const nut = s.nut.data();
  real_t* const mut = s.mut.data();
  real_t* const pb = s.pb.data();
  real_t* const gb = s.gb.data();
  real_t* const ph = s.ph.data();
  State* const r = ZeroRes ? res->data() : nullptr;
  const real_t mu_lam = phys.mu_lam;
  const bool viscous = phys.viscous;
  for_nodes(n, [&](std::size_t i) {
    const State& ui = u[i];
    const Prim wi = mean_prim(ui);
    w[i] = wi;
    const real_t nt = ui[5] / ui[0];
    nut[i] = nt;
    const real_t ev =
        viscous ? eddy_viscosity(wi.rho, nt, mu_lam / wi.rho) : 0.0;
    mut[i] = ev;
    real_t* const __restrict p = pb + i * kPrimStride;
    p[0] = wi.rho;
    p[1] = wi.vel.x;
    p[2] = wi.vel.y;
    p[3] = wi.vel.z;
    p[4] = wi.p;
    p[5] = nt;
    p[6] = ev;
    // p/rho with the exact division the viscous flux performed per edge
    // side; cached so the energy Laplacian reads two values per edge.
    p[7] = viscous ? wi.p / wi.rho : 0.0;
    if constexpr (SeedGrad) {
      real_t* const __restrict g = gb + i * kGradStride;
      for (std::size_t c = 0; c < 6; ++c) {
        g[c] = g[6 + c] = g[12 + c] = 0.0;
        if constexpr (SeedMinmax) g[18 + c] = g[24 + c] = p[c];
      }
      if constexpr (SeedMinmax) {
        real_t* const __restrict f = ph + i * kPhiStride;
        for (std::size_t c = 0; c < 6; ++c) f[c] = 1.0;
      }
    }
    if constexpr (ZeroRes) r[i] = State{};
  });
}

}  // namespace

void prim_cache(const Level& lvl, const Physics& phys,
                std::span<const State> u, Scratch& s) {
  prim_cache_impl<false, false, false>(lvl, phys, u, s, nullptr);
}

namespace {

/// Edge sweep + finalize of the Green-Gauss gradients; requires the
/// gradient (and, with minmax, phi) blocks to be seeded — either by the
/// standalone seed pass in gradients() or fused into prim_cache_impl.
void gradients_sweep(const Level& lvl, Scratch& s, bool with_minmax);

}  // namespace

void gradients(const Level& lvl, Scratch& s, bool with_minmax) {
  const std::size_t n = std::size_t(lvl.num_nodes);
  const real_t* const pb = s.pb.data();
  real_t* const gb = s.gb.data();
  real_t* const ph = s.ph.data();

  // Zero the accumulators; seed min/max with the node's own value (the
  // scalar path did this between its two edge sweeps — the seeds read only
  // q, so seeding before the fused sweep is value-identical). The limiter
  // seed (phi = 1) rides along in the same pass: nothing reads ph before
  // the limiter's own min-accumulation.
  for_nodes(n, [&](std::size_t i) {
    real_t* const __restrict g = gb + i * kGradStride;
    const real_t* const __restrict p = pb + i * kPrimStride;
    for (std::size_t c = 0; c < 6; ++c) {
      g[c] = g[6 + c] = g[12 + c] = 0.0;
      if (with_minmax) g[18 + c] = g[24 + c] = p[c];
    }
    if (with_minmax) {
      real_t* const __restrict f = ph + i * kPhiStride;
      for (std::size_t c = 0; c < 6; ++c) f[c] = 1.0;
    }
  });
  gradients_sweep(lvl, s, with_minmax);
}

namespace {

void gradients_sweep(const Level& lvl, Scratch& s, bool with_minmax) {
  const std::size_t n = std::size_t(lvl.num_nodes);
  const real_t* const pb = s.pb.data();
  real_t* const gb = s.gb.data();

  // Fused sweep: Green-Gauss accumulation and neighbor min/max visit edges
  // in the same order, so each output stream keeps the scalar path's
  // per-node accumulation order.
  const index_t* const ea = lvl.edge_a.data();
  const index_t* const eb = lvl.edge_b.data();
  const real_t* const nx = lvl.edge_nx.data();
  const real_t* const ny = lvl.edge_ny.data();
  const real_t* const nz = lvl.edge_nz.data();
  auto sweep = [&](auto minmax) {
    for_edges_owned(lvl, s, [&](std::size_t e, auto own_a, auto own_b) {
      constexpr bool A = decltype(own_a)::value, B = decltype(own_b)::value;
      const std::size_t a = std::size_t(ea[e]);
      const std::size_t b = std::size_t(eb[e]);
      const real_t enx = nx[e], eny = ny[e], enz = nz[e];
      grad_edge<decltype(minmax)::value, A, B>(
          gb + a * kGradStride, gb + b * kGradStride, pb + a * kPrimStride,
          pb + b * kPrimStride, enx, eny, enz);
    });
  };
  if (with_minmax)
    sweep(std::true_type{});
  else
    sweep(std::false_type{});

  // Boundary closure + volume normalization. The scalar path divided a
  // Vec3 by max(vol, 1e-300), which geom::Vec3 implements as reciprocal
  // multiplication — Level::inv_volume is that same reciprocal.
  const real_t* const invv = lvl.inv_volume.data();
  for_nodes(n, [&](std::size_t i) {
    Vec3 bn{};
    for (const Vec3& t : lvl.boundary_normal[i]) bn += t;
    const real_t iv = invv[i];
    real_t* const __restrict g = gb + i * kGradStride;
    const real_t* const __restrict p = pb + i * kPrimStride;
    for (std::size_t c = 0; c < 6; ++c) {
      const real_t qi = p[c];
      g[c] = (g[c] + qi * bn.x) * iv;
      g[6 + c] = (g[6 + c] + qi * bn.y) * iv;
      g[12 + c] = (g[12 + c] + qi * bn.z) * iv;
    }
  });
}

}  // namespace

void limiter(const Level& lvl, Scratch& s) {
  const real_t* const pb = s.pb.data();
  const real_t* const gb = s.gb.data();
  real_t* const ph = s.ph.data();
  real_t* const edq = s.edq.data();
  // ph was seeded to 1 by the gradients(with_minmax) pass that must
  // precede this kernel (the limiter needs those gradients and min/max).

  const index_t* const ea = lvl.edge_a.data();
  const index_t* const eb = lvl.edge_b.data();
  const real_t* const dx = lvl.edge_dx.data();
  const real_t* const dy = lvl.edge_dy.data();
  const real_t* const dz = lvl.edge_dz.data();
  for_edges_owned(lvl, s, [&](std::size_t e, auto own_a, auto own_b) {
    constexpr bool A = decltype(own_a)::value, B = decltype(own_b)::value;
    const std::size_t a = std::size_t(ea[e]);
    const std::size_t b = std::size_t(eb[e]);
    const real_t dxe = dx[e], dye = dy[e], dze = dz[e];
    const real_t eps2 = lvl.edge_eps2[e];
    const real_t* const pa = pb + a * kPrimStride;
    const real_t* const pbv = pb + b * kPrimStride;
    const real_t* const ga = gb + a * kGradStride;
    const real_t* const gbb = gb + b * kGradStride;
    real_t* const pha = ph + a * kPhiStride;
    real_t* const phb = ph + b * kPhiStride;
    // Vectorized directional differences, cached per edge: the flux
    // reconstruction reuses them bitwise instead of re-gathering the
    // gradients. Only side a's owner stores them; a task owning just side
    // b evaluates the identical expression into a local copy. The venkat
    // pass stays scalar: the data-dependent branches skip the division
    // entirely for near-constant components, which a branchless/vectorized
    // form (measured) cannot.
    real_t local[kEdqStride] = {};
    real_t* const ed = A ? edq + e * kEdqStride : local;
    limiter_dq(ed, ga, gbb, dxe, dye, dze);
    for (std::size_t c = 0; c < 6; ++c) {
      if constexpr (A) {
        const real_t dqa = ed[c];
        real_t lim_a = 1.0;
        if (dqa > 1e-14)
          lim_a = venkat(ga[24 + c] - pa[c], dqa, eps2);
        else if (dqa < -1e-14)
          lim_a = venkat(pa[c] - ga[18 + c], -dqa, eps2);
        pha[c] = std::min(pha[c], lim_a);
      }
      if constexpr (B) {
        const real_t dqb = ed[6 + c];
        real_t lim_b = 1.0;
        if (dqb > 1e-14)
          lim_b = venkat(gbb[24 + c] - pbv[c], dqb, eps2);
        else if (dqb < -1e-14)
          lim_b = venkat(pbv[c] - gbb[18 + c], -dqb, eps2);
        phb[c] = std::min(phb[c], lim_b);
      }
    }
  });
}

namespace {

template <euler::FluxScheme S>
void flux_edges_impl(const Level& lvl, const Physics& phys, Scratch& s,
                     bool second_order, std::vector<State>& res) {
  // Everything a flux evaluation needs per node — reconstruction scalars,
  // eddy viscosity, p/rho — sits in the one-line prim block; the limiter
  // pass already cached the per-edge directional differences, so the sweep
  // gathers two prim lines + two phi lines per edge and streams the rest.
  const real_t* const pb = s.pb.data();
  const real_t* const ph = s.ph.data();
  const real_t* const edq = s.edq.data();
  State* const r = res.data();
  const real_t mu_lam = phys.mu_lam;
  const bool viscous = phys.viscous;
  // Loop-invariant laminar conduction factor (same division as the scalar
  // path, evaluated once).
  const real_t mu_pr = mu_lam / kPrandtl;

  const index_t* const ea = lvl.edge_a.data();
  const index_t* const eb = lvl.edge_b.data();
  const real_t* const geo_ = lvl.edge_geo.data();
  for_edges_owned(lvl, s, [&](std::size_t e, auto own_a, auto own_b) {
    constexpr bool A = decltype(own_a)::value, B = decltype(own_b)::value;
    const std::size_t a = std::size_t(ea[e]);
    const std::size_t b = std::size_t(eb[e]);
    const real_t area = lvl.edge_area[e];
    if (area <= 0) return;
    const Vec3 nh{lvl.edge_ux[e], lvl.edge_uy[e], lvl.edge_uz[e]};
    const real_t* const pa = pb + a * kPrimStride;
    const real_t* const pbv = pb + b * kPrimStride;

    // Limited linear reconstruction to the edge midpoint (falls back to
    // the node value when it would produce a nonphysical state).
    Prim wl{pa[0], {pa[1], pa[2], pa[3]}, pa[4]};
    Prim wr{pbv[0], {pbv[1], pbv[2], pbv[3]}, pbv[4]};
    real_t nut_l = pa[5], nut_r = pbv[5];
    if (second_order) {
      real_t ql[6], qr[6];
      recon_edge(ql, qr, pa, pbv, ph + a * kPhiStride, ph + b * kPhiStride,
                 edq + e * kEdqStride);
      if (!(ql[0] <= 0 || ql[4] <= 0)) {
        wl = Prim{ql[0], {ql[1], ql[2], ql[3]}, ql[4]};
        nut_l = ql[5];
      }
      if (!(qr[0] <= 0 || qr[4] <= 0)) {
        wr = Prim{qr[0], {qr[1], qr[2], qr[3]}, qr[4]};
        nut_r = qr[5];
      }
    }

    const euler::Cons flux = scheme_flux<S>(wl, wr, nh);
    const real_t mdot = flux[0] * area;
    const real_t fnut = mdot * (mdot >= 0 ? nut_l : nut_r);
    for (std::size_t c = 0; c < 5; ++c) {
      const real_t fc = area * flux[c];
      if constexpr (A) r[a][c] += fc;
      if constexpr (B) r[b][c] -= fc;
    }
    if constexpr (A) r[a][5] += fnut;
    if constexpr (B) r[b][5] -= fnut;

    // Thin-layer viscous terms; edge_geo carries the area/length metric
    // (positive exactly when the scalar path's length guard passed).
    if (viscous && geo_[e] > 0) {
      const real_t geo = geo_[e];
      const real_t mutm = 0.5 * (pa[6] + pbv[6]);
      const real_t cm = (mu_lam + mutm) * geo;
      const Vec3 va{pa[1], pa[2], pa[3]};
      const Vec3 vb{pbv[1], pbv[2], pbv[3]};
      const Vec3 dvel = vb - va;
      if constexpr (A) {
        r[a][1] -= cm * dvel.x;
        r[a][2] -= cm * dvel.y;
        r[a][3] -= cm * dvel.z;
      }
      if constexpr (B) {
        r[b][1] += cm * dvel.x;
        r[b][2] += cm * dvel.y;
        r[b][3] += cm * dvel.z;
      }
      // Shear work + conduction lumped into an energy Laplacian with the
      // thermal coefficient (thin-layer approximation).
      const real_t ck = (mu_pr + mutm / kPrandtlTurb) * euler::kGamma /
                        (euler::kGamma - 1) * geo;
      const real_t dT = pbv[7] - pa[7];
      // Mean kinetic-energy transport by shear.
      const Vec3 vm = 0.5 * (va + vb);
      const real_t dke = dot(vm, dvel);
      const real_t de = ck * dT + cm * dke;
      if constexpr (A) r[a][4] -= de;
      if constexpr (B) r[b][4] += de;
      // SA diffusion: (1/sigma) rho (nu + nu~) grad nu~.
      const real_t rho_m = 0.5 * (pa[0] + pbv[0]);
      const real_t nu_m = mu_lam / rho_m;
      const real_t nut_m = 0.5 * (pa[5] + pbv[5]);
      const real_t cs =
          rho_m * (nu_m + std::max<real_t>(nut_m, 0)) / kSigma * geo;
      const real_t ds = cs * (pbv[5] - pa[5]);
      if constexpr (A) r[a][5] -= ds;
      if constexpr (B) r[b][5] += ds;
    }
  });
}

}  // namespace

namespace {

/// Flux edge sweep without the zeroing pass — the fused residual() zeroes
/// `res` inside prim_cache_impl instead.
void flux_sweep(const Level& lvl, const Physics& phys, Scratch& s,
                bool second_order, std::vector<State>& res) {
  switch (phys.flux) {
    case euler::FluxScheme::Roe:
      flux_edges_impl<euler::FluxScheme::Roe>(lvl, phys, s, second_order, res);
      break;
    case euler::FluxScheme::VanLeer:
      flux_edges_impl<euler::FluxScheme::VanLeer>(lvl, phys, s, second_order,
                                                  res);
      break;
    case euler::FluxScheme::Rusanov:
      flux_edges_impl<euler::FluxScheme::Rusanov>(lvl, phys, s, second_order,
                                                  res);
      break;
  }
}

}  // namespace

void flux_residual(const Level& lvl, const Physics& phys, Scratch& s,
                   bool second_order, std::vector<State>& res) {
  res.assign(std::size_t(lvl.num_nodes), State{});
  flux_sweep(lvl, phys, s, second_order, res);
}

namespace {

// Per-node bodies of the three residual closures. The closures are
// independent across nodes, so the composed residual() fuses them into a
// single node pass; the public phase kernels below loop over the same
// bodies one at a time. Per-node operation order (boundary flux, then the
// strong-BC projection, then the SA source) matches the phase order, so
// the fusion is bit-identical.

inline void boundary_node(const Level& lvl, const Physics& phys,
                          const Prim* w, const real_t* nut, std::size_t i,
                          State& ri) {
  const Vec3& fn =
      lvl.boundary_normal[i][std::size_t(mesh::BoundaryTag::Farfield)];
  const real_t fa = norm(fn);
  if (fa > 0) {
    const Vec3 nh = fn / fa;
    const euler::Cons flux =
        euler::farfield_flux(w[i], phys.freestream, nh, phys.flux);
    for (std::size_t c = 0; c < 5; ++c) ri[c] += fa * flux[c];
    const real_t mdot = flux[0] * fa;
    ri[5] += mdot * (mdot >= 0 ? nut[i] : phys.nut_inf);
  }
  for (mesh::BoundaryTag tag :
       {mesh::BoundaryTag::Wall, mesh::BoundaryTag::Symmetry}) {
    const Vec3& bn = lvl.boundary_normal[i][std::size_t(tag)];
    if (dot(bn, bn) > 0) {
      const euler::Cons flux = euler::wall_flux(w[i], bn);
      for (std::size_t c = 0; c < 5; ++c) ri[c] += flux[c];
    }
  }
}

inline void strong_bc_node(const Level& lvl, bool viscous, std::size_t i,
                           State& ri) {
  if (viscous && lvl.is_wall_node(index_t(i))) {
    ri[1] = ri[2] = ri[3] = 0;
    ri[5] = 0;
    return;
  }
  const Vec3& sn =
      lvl.boundary_normal[i][std::size_t(mesh::BoundaryTag::Symmetry)];
  const real_t s2 = dot(sn, sn);
  if (s2 > 0) {
    const Vec3 nh = sn / std::sqrt(s2);
    Vec3 rm{ri[1], ri[2], ri[3]};
    rm -= dot(rm, nh) * nh;
    ri[1] = rm.x;
    ri[2] = rm.y;
    ri[3] = rm.z;
  }
}

/// Constants of the SA destruction term hoisted out of the node loop.
/// pow(kCw3, 6) is compile-time constant. The r argument saturates to
/// exactly 10.0 wherever stilde <= 0 or the ratio exceeds the cap — i.e.
/// in every (near-)irrotational region. The whole fw chain is then a
/// fixed composition of the same std::pow calls the per-node path would
/// make, so hoisting it preserves every bit while skipping three libm
/// calls on the fast path.
struct SaConsts {
  real_t c6, fw_sat;
};

inline SaConsts sa_consts() {
  const real_t c6 = std::pow(kCw3, 6);
  const real_t g_sat =
      10.0 + kCw2 * (std::pow(real_t(10.0), 6) - real_t(10.0));
  const real_t fw_sat =
      g_sat * std::pow((1.0 + c6) / (std::pow(g_sat, 6) + c6), 1.0 / 6.0);
  return {c6, fw_sat};
}

inline void sa_node(const Level& lvl, real_t mu_lam, const Prim* w,
                    const real_t* nut, const real_t* gb, const SaConsts& sc,
                    std::size_t i, State& ri) {
  const real_t d = std::max(lvl.wall_distance[i], real_t(1e-8));
  const real_t nu = mu_lam / w[i].rho;
  const real_t nt = std::max<real_t>(nut[i], 0);
  // Vorticity magnitude from the Green-Gauss velocity gradients
  // (components read from the gradient block; same dot order as norm()).
  const real_t* const gi = gb + i * kGradStride;
  const real_t ox = gi[6 + 3] - gi[12 + 2];
  const real_t oy = gi[12 + 1] - gi[3];
  const real_t oz = gi[2] - gi[6 + 1];
  const real_t sv = std::sqrt((ox * ox + oy * oy) + oz * oz);
  const real_t chi = nt / nu;
  const real_t chi3 = chi * chi * chi;
  const real_t fv1 = chi3 / (chi3 + kCv1 * kCv1 * kCv1);
  const real_t fv2 = 1.0 - chi / (1.0 + chi * fv1);
  const real_t k2d2 = kKappa * kKappa * d * d;
  real_t stilde = sv + nt / k2d2 * fv2;
  stilde = std::max(stilde, real_t(0.3) * sv);
  const real_t prod = kCb1 * stilde * w[i].rho * nt;
  real_t rr = stilde > 0 ? nt / (stilde * k2d2) : 10.0;
  rr = std::min(rr, real_t(10.0));
  real_t fw;
  if (rr == 10.0) {
    fw = sc.fw_sat;
  } else {
    const real_t g = rr + kCw2 * (std::pow(rr, 6) - rr);
    fw = g * std::pow((1.0 + sc.c6) / (std::pow(g, 6) + sc.c6), 1.0 / 6.0);
  }
  const real_t destr = kCw1 * fw * w[i].rho * (nt / d) * (nt / d);
  ri[5] += lvl.node_volume[i] * (destr - prod);
}

}  // namespace

void boundary_residual(const Level& lvl, const Physics& phys,
                       const Scratch& s, std::vector<State>& res) {
  const std::size_t n = std::size_t(lvl.num_nodes);
  const Prim* const w = s.w.data();
  const real_t* const nut = s.nut.data();
  for_nodes(n,
            [&](std::size_t i) { boundary_node(lvl, phys, w, nut, i, res[i]); });
}

void strong_bc_filter(const Level& lvl, const Physics& phys, int level,
                      std::vector<State>& res) {
  // Strongly-constrained components carry no residual: their equations are
  // replaced by the Dirichlet projection (apply_strong_bcs). Leaving them
  // in would poison the FAS coarse-grid forcing with residuals the fine
  // grid never drives to zero.
  if (level != 0) return;
  const std::size_t n = std::size_t(lvl.num_nodes);
  for_nodes(n, [&](std::size_t i) {
    strong_bc_node(lvl, phys.viscous, i, res[i]);
  });
}

void sa_source(const Level& lvl, const Physics& phys, const Scratch& s,
               std::vector<State>& res) {
  const std::size_t n = std::size_t(lvl.num_nodes);
  const Prim* const w = s.w.data();
  const real_t* const nut = s.nut.data();
  const real_t* const gb = s.gb.data();
  const SaConsts sc = sa_consts();
  for_nodes(n, [&](std::size_t i) {
    sa_node(lvl, phys.mu_lam, w, nut, gb, sc, i, res[i]);
  });
}

void residual(const Level& lvl, const Physics& phys, int level,
              std::span<const State> u, bool second_order, Scratch& s,
              std::vector<State>& res) {
  s.resize(lvl);
  // Fused setup: the prim-cache pass also seeds the gradient/phi blocks and
  // zeroes `res` (same stores the standalone phases make, one sweep fewer
  // over the node arrays).
  res.resize(std::size_t(lvl.num_nodes));
  const bool grads = second_order || phys.viscous;
  if (grads && second_order)
    prim_cache_impl<true, true, true>(lvl, phys, u, s, &res);
  else if (grads)
    prim_cache_impl<true, false, true>(lvl, phys, u, s, &res);
  else
    prim_cache_impl<false, false, true>(lvl, phys, u, s, &res);
  if (grads) gradients_sweep(lvl, s, second_order);
  if (second_order) limiter(lvl, s);
  flux_sweep(lvl, phys, s, second_order, res);
  // Fused node closures: one pass over the nodes applies the boundary
  // fluxes, the strong-BC filter, and the SA source (see the per-node
  // bodies above for why this matches the separate phase kernels bit for
  // bit).
  const std::size_t n = std::size_t(lvl.num_nodes);
  const Prim* const w = s.w.data();
  const real_t* const nut = s.nut.data();
  const real_t* const gb = s.gb.data();
  const SaConsts sc = sa_consts();
  const bool strong = level == 0;
  const bool viscous = phys.viscous;
  for_nodes(n, [&](std::size_t i) {
    State& ri = res[i];
    boundary_node(lvl, phys, w, nut, i, ri);
    if (strong) strong_bc_node(lvl, viscous, i, ri);
    if (viscous) sa_node(lvl, phys.mu_lam, w, nut, gb, sc, i, ri);
  });
}

void wave_speeds(const Level& lvl, const Physics& phys, Scratch& s) {
  const std::size_t n = std::size_t(lvl.num_nodes);
  s.wave.assign(n, 0.0);
  s.snd.resize(n);
  const Prim* const w = s.w.data();
  const real_t* const mut = s.mut.data();
  real_t* const wave = s.wave.data();
  real_t* const snd = s.snd.data();
  const real_t mu_lam = phys.mu_lam;
  const bool viscous = phys.viscous;

  // Per-node sound speed, cached: the scalar path recomputed sqrt(g p/rho)
  // for both endpoints of every edge.
  for_nodes(n, [&](std::size_t i) { snd[i] = w[i].sound_speed(); });

  const index_t* const ea = lvl.edge_a.data();
  const index_t* const eb = lvl.edge_b.data();
  for_edges_owned(lvl, s, [&](std::size_t e, auto own_a, auto own_b) {
    constexpr bool A = decltype(own_a)::value, B = decltype(own_b)::value;
    const std::size_t a = std::size_t(ea[e]);
    const std::size_t b = std::size_t(eb[e]);
    const real_t area = lvl.edge_area[e];
    if (area <= 0) return;
    const Vec3 nh{lvl.edge_ux[e], lvl.edge_uy[e], lvl.edge_uz[e]};
    if constexpr (A) wave[a] += (std::abs(dot(w[a].vel, nh)) + snd[a]) * area;
    if constexpr (B) wave[b] += (std::abs(dot(w[b].vel, nh)) + snd[b]) * area;
    if (viscous && lvl.edge_length[e] > 0) {
      // (coef * area) / length — the association differs from coef *
      // edge_geo, so the per-edge division stays.
      const real_t c =
          (mu_lam + 0.5 * (mut[a] + mut[b])) * area / lvl.edge_length[e];
      if constexpr (A) wave[a] += c / w[a].rho;
      if constexpr (B) wave[b] += c / w[b].rho;
    }
  });
  for_nodes(n, [&](std::size_t i) {
    Vec3 bn{};
    for (const Vec3& t : lvl.boundary_normal[i]) bn += t;
    const real_t ba = norm(bn);
    if (ba > 0) wave[i] += euler::spectral_radius(w[i], bn / ba) * ba;
  });
}

void assemble_diag(const Level& lvl, const Physics& phys, real_t cfl,
                   std::span<const State> u, Scratch& s) {
  const std::size_t n = std::size_t(lvl.num_nodes);
  s.diag.resize(n);
  const Prim* const w = s.w.data();
  const real_t* const mut = s.mut.data();
  const real_t* const wave = s.wave.data();
  const real_t* const snd = s.snd.data();
  BlockMat<6>* const diag = s.diag.data();
  const real_t mu_lam = phys.mu_lam;
  const bool viscous = phys.viscous;

  for_nodes(n, [&](std::size_t i) {
    const real_t dt =
        wave[i] > 0 ? cfl * lvl.node_volume[i] / wave[i] : 1e30;
    diag[i] = BlockMat<6>::diagonal(lvl.node_volume[i] / dt);
  });
  const index_t* const ea = lvl.edge_a.data();
  const index_t* const eb = lvl.edge_b.data();
  // dR_a/du_a += 0.5 (A(w_a, +n) + lambda I); likewise for b with -n.
  // Each side's block depends only on its own endpoint, so a task owning
  // one side of an edge evaluates only that side's Jacobian.
  const auto add_side = [&](std::size_t i, const Vec3& nrm, real_t lam) {
    const BlockMat<5> j = euler::flux_jacobian(w[i], nrm);
    for (int rr = 0; rr < 5; ++rr)
      for (int cc = 0; cc < 5; ++cc) diag[i](rr, cc) += 0.5 * j(rr, cc);
    for (int rr = 0; rr < 5; ++rr) diag[i](rr, rr) += 0.5 * lam;
    diag[i](5, 5) += 0.5 * lam;
  };
  for_edges_owned(lvl, s, [&](std::size_t e, auto own_a, auto own_b) {
    constexpr bool A = decltype(own_a)::value, B = decltype(own_b)::value;
    const std::size_t a = std::size_t(ea[e]);
    const std::size_t b = std::size_t(eb[e]);
    const real_t area = lvl.edge_area[e];
    if (area <= 0) return;
    const Vec3 nh{lvl.edge_ux[e], lvl.edge_uy[e], lvl.edge_uz[e]};
    if constexpr (A)
      add_side(a, lvl.edge_normal[e],
               (std::abs(dot(w[a].vel, nh)) + snd[a]) * area);
    if constexpr (B)
      add_side(b, -1.0 * lvl.edge_normal[e],
               (std::abs(dot(w[b].vel, nh)) + snd[b]) * area);
    if (viscous && lvl.edge_geo[e] > 0) {
      const real_t geo = lvl.edge_geo[e];
      const real_t cm = (mu_lam + 0.5 * (mut[a] + mut[b])) * geo;
      const real_t cs =
          (mu_lam + 0.5 * (u[a][5] + u[b][5])) / kSigma * geo;
      const auto add_visc = [&](std::size_t i) {
        for (int rr = 1; rr <= 4; ++rr) diag[i](rr, rr) += cm;
        diag[i](5, 5) += cs;
      };
      if constexpr (A) add_visc(a);
      if constexpr (B) add_visc(b);
    }
  });
  // Farfield linearization keeps boundary nodes well conditioned.
  for_nodes(n, [&](std::size_t i) {
    Vec3 bn{};
    for (const Vec3& t : lvl.boundary_normal[i]) bn += t;
    const real_t ba = norm(bn);
    if (ba > 0) {
      const real_t lam = euler::spectral_radius(w[i], bn / ba) * ba;
      for (int rr = 0; rr < 6; ++rr) diag[i](rr, rr) += 0.5 * lam;
    }
  });
}

namespace {

BlockVec<6> rhs_of(std::span<const State> f, std::span<const State> r,
                   std::size_t i) {
  BlockVec<6> rhs;
  for (int c = 0; c < 6; ++c) rhs[c] = f[i][std::size_t(c)] - r[i][std::size_t(c)];
  return rhs;
}

void apply_update(std::vector<State>& u, std::size_t i, real_t relax,
                  const BlockVec<6>& du) {
  State unew = u[i];
  for (int c = 0; c < 6; ++c) unew[std::size_t(c)] += relax * du[c];
  unew[5] = std::max<real_t>(unew[5], 0);
  if (state_valid(unew)) u[i] = unew;
}

}  // namespace

void point_sweep(const Level& lvl, real_t relax, std::span<const State> f,
                 std::span<const State> r, Scratch& s, std::vector<State>& u) {
  const std::size_t n = std::size_t(lvl.num_nodes);
  const BlockMat<6>* const diag = s.diag.data();
  for_nodes(n, [&](std::size_t i) {
    BlockLU<6> lu;
    if (!lu.factor_status(diag[i])) {
      // Singular point: skip the update (explicit fallback) but make
      // the event visible instead of silently dropping it.
      OBS_COUNT("resil.singular_pivot", 1);
      return;
    }
    apply_update(u, i, relax, lu.solve(rhs_of(f, r, i)));
  });
}

void line_sweep(const Level& lvl, const Physics& phys, real_t relax,
                std::span<const State> f, std::span<const State> r,
                Scratch& s, std::vector<State>& u) {
  // Block-tridiagonal solve along each implicit line; off-line couplings
  // stay explicit (Jacobi) as in the paper's scheme. Lines are
  // node-disjoint, so they solve in parallel; each pool thread uses its
  // own factorization scratch.
  smp::ThreadPool& pool = smp::ThreadPool::global();
  const auto& all_lines = lvl.lines.lines;
  if (s.line_scratch.size() < std::size_t(pool.num_threads())) {
    s.line_scratch.resize(std::size_t(pool.num_threads()));
    std::size_t longest = 0;
    for (const auto& line : all_lines) longest = std::max(longest, line.size());
    for (Scratch::LineScratch& ls : s.line_scratch) {
      ls.lower.reserve(longest);
      ls.dd.reserve(longest);
      ls.upper.reserve(longest);
      ls.rhs.reserve(longest);
      ls.lu.reserve(longest);
    }
  }
  const Prim* const w = s.w.data();
  const real_t* const mut = s.mut.data();
  const BlockMat<6>* const diag = s.diag.data();
  const real_t mu_lam = phys.mu_lam;
  const bool viscous = phys.viscous;
  OBS_COUNT("nsu3d.line_solves", all_lines.size());
  pool.parallel_for(0, all_lines.size(), kLineGrain,
                    [&](std::size_t lb, std::size_t le, int tid) {
    Scratch::LineScratch& ls = s.line_scratch[std::size_t(tid)];
    for (std::size_t li = lb; li < le; ++li) {
      const auto& line = all_lines[li];
      const auto& ledges = lvl.line_edges[li];
      const std::size_t len = line.size();
      ls.lower.assign(len, BlockMat<6>{});
      ls.dd.assign(len, BlockMat<6>{});
      ls.upper.assign(len, BlockMat<6>{});
      ls.rhs.assign(len, BlockVec<6>{});
      auto& lower = ls.lower;
      auto& dd = ls.dd;
      auto& upper = ls.upper;
      auto& rhs = ls.rhs;
      for (std::size_t k = 0; k < len; ++k) {
        const std::size_t i = std::size_t(line[k]);
        dd[k] = diag[i];
        rhs[k] = rhs_of(f, r, i);
      }
      // Off-diagonal blocks for consecutive line nodes; the connecting
      // edge was located once at level construction (Level::line_edges).
      for (std::size_t k = 0; k + 1 < len; ++k) {
        const auto [eid, sgn] = ledges[k];
        if (eid == kInvalidIndex) continue;
        const std::size_t ei = std::size_t(eid);
        const real_t area = lvl.edge_area[ei];
        if (area <= 0) continue;
        const std::size_t i = std::size_t(line[k]);
        const std::size_t j = std::size_t(line[k + 1]);
        const Vec3 n_out = sgn * lvl.edge_normal[ei];
        // n_out/area == sgn * edge_unit bitwise (sgn is +-1).
        const Vec3 nh = sgn * lvl.edge_unit[ei];
        // dR_i/du_j = 0.5 (A(w_j, n_out) - lambda_j I).
        const BlockMat<5> jj = euler::flux_jacobian(w[j], n_out);
        const real_t lam = euler::spectral_radius(w[j], nh) * area;
        BlockMat<6> off;
        for (int rr = 0; rr < 5; ++rr) {
          for (int cc = 0; cc < 5; ++cc) off(rr, cc) = 0.5 * jj(rr, cc);
          off(rr, rr) -= 0.5 * lam;
        }
        off(5, 5) -= 0.5 * lam;
        real_t cm = 0, cs = 0;
        const bool visc_edge = viscous && lvl.edge_geo[ei] > 0;
        if (visc_edge) {
          const real_t geo = lvl.edge_geo[ei];
          cm = (mu_lam + 0.5 * (mut[i] + mut[j])) * geo;
          cs = (mu_lam + 0.5 * (u[i][5] + u[j][5])) / kSigma * geo;
          for (int rr = 1; rr <= 4; ++rr) off(rr, rr) -= cm;
          off(5, 5) -= cs;
        }
        upper[k] = off;
        // dR_j/du_i: mirrored with w_i and the opposite normal.
        const BlockMat<5> ji = euler::flux_jacobian(w[i], -1.0 * n_out);
        const real_t lam_i = euler::spectral_radius(w[i], nh) * area;
        BlockMat<6> offl;
        for (int rr = 0; rr < 5; ++rr) {
          for (int cc = 0; cc < 5; ++cc) offl(rr, cc) = 0.5 * ji(rr, cc);
          offl(rr, rr) -= 0.5 * lam_i;
        }
        offl(5, 5) -= 0.5 * lam_i;
        if (visc_edge) {
          for (int rr = 1; rr <= 4; ++rr) offl(rr, rr) -= cm;
          offl(5, 5) -= cs;
        }
        lower[k + 1] = offl;
      }
      if (!linalg::solve_block_tridiag_status<6>(lower, dd, upper, rhs,
                                                 ls.lu)) {
        OBS_COUNT("resil.singular_pivot", 1);
        continue;
      }
      for (std::size_t k = 0; k < len; ++k)
        apply_update(u, std::size_t(line[k]), relax, rhs[k]);
    }
  });
}

namespace {

/// Scalar component c of the reconstruction set [rho, u, v, w, p, nut]
/// (the reference path's per-component switch, retained verbatim).
real_t prim_scalar(const Prim& w, real_t nut, int c) {
  switch (c) {
    case 0: return w.rho;
    case 1: return w.vel.x;
    case 2: return w.vel.y;
    case 3: return w.vel.z;
    case 4: return w.p;
    default: return nut;
  }
}

}  // namespace

void residual_reference(const Level& lvl, const Physics& phys, int level,
                        std::span<const State> u, bool second_order,
                        ReferenceScratch& ws, std::vector<State>& res) {
  const std::size_t n = std::size_t(lvl.num_nodes);
  const real_t mu_lam = phys.mu_lam;
  const bool viscous = phys.viscous;
  res.assign(n, State{});

  // Primitive caches.
  ws.w.resize(n);
  ws.nut.resize(n);
  ws.mut.resize(n);
  auto& w = ws.w;
  auto& nut = ws.nut;
  auto& mut = ws.mut;
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = mean_prim(u[i]);
    nut[i] = u[i][5] / u[i][0];
    mut[i] =
        viscous ? eddy_viscosity(w[i].rho, nut[i], mu_lam / w[i].rho) : 0.0;
  }

  // Green-Gauss gradients of [rho, u, v, w, p, nut].
  const bool need_grad = second_order || viscous;
  auto& grad = ws.grad;
  if (need_grad) {
    grad.assign(n, {});
    for (std::size_t e = 0; e < lvl.edges.size(); ++e) {
      const auto [a, b] = lvl.edges[e];
      const Vec3& nrm = lvl.edge_normal[e];
      for (int c = 0; c < 6; ++c) {
        const real_t qf =
            0.5 * (prim_scalar(w[std::size_t(a)], nut[std::size_t(a)], c) +
                   prim_scalar(w[std::size_t(b)], nut[std::size_t(b)], c));
        grad[std::size_t(a)][std::size_t(c)] += qf * nrm;
        grad[std::size_t(b)][std::size_t(c)] -= qf * nrm;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      Vec3 bn{};
      for (const Vec3& t : lvl.boundary_normal[i]) bn += t;
      for (int c = 0; c < 6; ++c) {
        grad[i][std::size_t(c)] += prim_scalar(w[i], nut[i], c) * bn;
        grad[i][std::size_t(c)] = grad[i][std::size_t(c)] /
                                  std::max(lvl.node_volume[i], real_t(1e-300));
      }
    }
  }

  // Venkatakrishnan limiter for the fine-level reconstruction.
  auto& phi = ws.phi;
  if (second_order) {
    auto& qmin = ws.qmin;
    auto& qmax = ws.qmax;
    qmin.resize(n);
    qmax.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      for (int c = 0; c < 6; ++c)
        qmin[i][std::size_t(c)] = qmax[i][std::size_t(c)] =
            prim_scalar(w[i], nut[i], c);
    for (std::size_t e = 0; e < lvl.edges.size(); ++e) {
      const auto [a, b] = lvl.edges[e];
      for (int c = 0; c < 6; ++c) {
        const real_t qa =
            prim_scalar(w[std::size_t(a)], nut[std::size_t(a)], c);
        const real_t qb =
            prim_scalar(w[std::size_t(b)], nut[std::size_t(b)], c);
        auto& mna = qmin[std::size_t(a)][std::size_t(c)];
        auto& mxa = qmax[std::size_t(a)][std::size_t(c)];
        auto& mnb = qmin[std::size_t(b)][std::size_t(c)];
        auto& mxb = qmax[std::size_t(b)][std::size_t(c)];
        mna = std::min(mna, qb);
        mxa = std::max(mxa, qb);
        mnb = std::min(mnb, qa);
        mxb = std::max(mxb, qa);
      }
    }
    phi.assign(n, {1, 1, 1, 1, 1, 1});
    for (std::size_t e = 0; e < lvl.edges.size(); ++e) {
      const auto [a, b] = lvl.edges[e];
      const Vec3& dab = lvl.edge_dab[e];
      const real_t eps2 = lvl.edge_eps2[e];
      for (int side = 0; side < 2; ++side) {
        const std::size_t i = std::size_t(side == 0 ? a : b);
        const Vec3 d = side == 0 ? dab : -1.0 * dab;
        for (int c = 0; c < 6; ++c) {
          const real_t dq = dot(grad[i][std::size_t(c)], d);
          real_t lim = 1.0;
          if (dq > 1e-14)
            lim = venkat(qmax[i][std::size_t(c)] - prim_scalar(w[i], nut[i], c),
                         dq, eps2);
          else if (dq < -1e-14)
            lim = venkat(prim_scalar(w[i], nut[i], c) - qmin[i][std::size_t(c)],
                         -dq, eps2);
          phi[i][std::size_t(c)] = std::min(phi[i][std::size_t(c)], lim);
        }
      }
    }
  }

  auto reconstruct = [&](std::size_t i, const Vec3& d,
                         real_t& nut_out) -> Prim {
    nut_out = nut[i];
    if (!second_order) return w[i];
    std::array<real_t, 6> q{w[i].rho, w[i].vel.x, w[i].vel.y, w[i].vel.z,
                            w[i].p, nut[i]};
    for (int c = 0; c < 6; ++c)
      q[std::size_t(c)] +=
          phi[i][std::size_t(c)] * dot(grad[i][std::size_t(c)], d);
    if (q[0] <= 0 || q[4] <= 0) return w[i];
    nut_out = q[5];
    return Prim{q[0], {q[1], q[2], q[3]}, q[4]};
  };

  // Edge loop: convective + viscous fluxes (per-edge geometry divisions as
  // in the seed; this is the baseline micro_kernels measures against).
  for (std::size_t e = 0; e < lvl.edges.size(); ++e) {
    const auto [ai, bi] = lvl.edges[e];
    const std::size_t a = std::size_t(ai), b = std::size_t(bi);
    const real_t area = lvl.edge_area[e];
    if (area <= 0) continue;
    const Vec3& nh = lvl.edge_unit[e];
    const Vec3& dab = lvl.edge_dab[e];
    real_t nut_l, nut_r;
    const Prim wl = reconstruct(a, dab, nut_l);
    const Prim wr = reconstruct(b, -1.0 * dab, nut_r);
    const euler::Cons flux = euler::numerical_flux(wl, wr, nh, phys.flux);
    const real_t mdot = flux[0] * area;
    const real_t fnut = mdot * (mdot >= 0 ? nut_l : nut_r);
    for (std::size_t c = 0; c < 5; ++c) {
      res[a][c] += area * flux[c];
      res[b][c] -= area * flux[c];
    }
    res[a][5] += fnut;
    res[b][5] -= fnut;

    if (viscous && lvl.edge_length[e] > 0) {
      const real_t geo = area / lvl.edge_length[e];
      const real_t mu_m = mu_lam + 0.5 * (mut[a] + mut[b]);
      const real_t cm = mu_m * geo;
      const Vec3 dvel = w[b].vel - w[a].vel;
      res[a][1] -= cm * dvel.x;
      res[a][2] -= cm * dvel.y;
      res[a][3] -= cm * dvel.z;
      res[b][1] += cm * dvel.x;
      res[b][2] += cm * dvel.y;
      res[b][3] += cm * dvel.z;
      const real_t ck =
          (mu_lam / kPrandtl + 0.5 * (mut[a] + mut[b]) / kPrandtlTurb) *
          euler::kGamma / (euler::kGamma - 1) * geo;
      const real_t dT = w[b].p / w[b].rho - w[a].p / w[a].rho;
      const Vec3 vm = 0.5 * (w[a].vel + w[b].vel);
      const real_t dke = dot(vm, dvel);
      res[a][4] -= ck * dT + cm * dke;
      res[b][4] += ck * dT + cm * dke;
      const real_t rho_m = 0.5 * (w[a].rho + w[b].rho);
      const real_t nu_m = mu_lam / rho_m;
      const real_t nut_m = 0.5 * (nut[a] + nut[b]);
      const real_t cs =
          rho_m * (nu_m + std::max<real_t>(nut_m, 0)) / kSigma * geo;
      const real_t dnt = nut[b] - nut[a];
      res[a][5] -= cs * dnt;
      res[b][5] += cs * dnt;
    }
  }

  // Boundary closures.
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3& fn =
        lvl.boundary_normal[i][std::size_t(mesh::BoundaryTag::Farfield)];
    const real_t fa = norm(fn);
    if (fa > 0) {
      const Vec3 nh = fn / fa;
      const euler::Cons flux =
          euler::farfield_flux(w[i], phys.freestream, nh, phys.flux);
      for (std::size_t c = 0; c < 5; ++c) res[i][c] += fa * flux[c];
      const real_t mdot = flux[0] * fa;
      res[i][5] += mdot * (mdot >= 0 ? nut[i] : phys.nut_inf);
    }
    for (mesh::BoundaryTag tag :
         {mesh::BoundaryTag::Wall, mesh::BoundaryTag::Symmetry}) {
      const Vec3& bn = lvl.boundary_normal[i][std::size_t(tag)];
      if (dot(bn, bn) > 0) {
        const euler::Cons flux = euler::wall_flux(w[i], bn);
        for (std::size_t c = 0; c < 5; ++c) res[i][c] += flux[c];
      }
    }
  }

  // Strong-BC residual projection.
  if (level == 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (viscous && lvl.is_wall_node(index_t(i))) {
        res[i][1] = res[i][2] = res[i][3] = 0;
        res[i][5] = 0;
        continue;
      }
      const Vec3& sn =
          lvl.boundary_normal[i][std::size_t(mesh::BoundaryTag::Symmetry)];
      const real_t s2 = dot(sn, sn);
      if (s2 > 0) {
        const Vec3 nh = sn / std::sqrt(s2);
        Vec3 rm{res[i][1], res[i][2], res[i][3]};
        rm -= dot(rm, nh) * nh;
        res[i][1] = rm.x;
        res[i][2] = rm.y;
        res[i][3] = rm.z;
      }
    }
  }

  // SA source terms (production - destruction), volume-scaled.
  if (viscous) {
    for (std::size_t i = 0; i < n; ++i) {
      const real_t d = std::max(lvl.wall_distance[i], real_t(1e-8));
      const real_t nu = mu_lam / w[i].rho;
      const real_t nt = std::max<real_t>(nut[i], 0);
      const Vec3 gx = grad[i][1], gy = grad[i][2], gz = grad[i][3];
      const Vec3 omega{gz.y - gy.z, gx.z - gz.x, gy.x - gx.y};
      const real_t sv = norm(omega);
      const real_t chi = nt / nu;
      const real_t chi3 = chi * chi * chi;
      const real_t fv1 = chi3 / (chi3 + kCv1 * kCv1 * kCv1);
      const real_t fv2 = 1.0 - chi / (1.0 + chi * fv1);
      const real_t k2d2 = kKappa * kKappa * d * d;
      real_t stilde = sv + nt / k2d2 * fv2;
      stilde = std::max(stilde, real_t(0.3) * sv);
      const real_t prod = kCb1 * stilde * w[i].rho * nt;
      real_t rr = stilde > 0 ? nt / (stilde * k2d2) : 10.0;
      rr = std::min(rr, real_t(10.0));
      const real_t g = rr + kCw2 * (std::pow(rr, 6) - rr);
      const real_t c6 = std::pow(kCw3, 6);
      const real_t fw =
          g * std::pow((1.0 + c6) / (std::pow(g, 6) + c6), 1.0 / 6.0);
      const real_t destr = kCw1 * fw * w[i].rho * (nt / d) * (nt / d);
      res[i][5] += lvl.node_volume[i] * (destr - prod);
    }
  }
}

}  // namespace columbia::nsu3d::kernels
