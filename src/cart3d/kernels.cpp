#include "cart3d/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "smp/owners.hpp"
#include "smp/pool.hpp"

namespace columbia::cart3d::kernels {

using cartesian::CartCell;
using cartesian::CartFace;
using cartesian::CartMesh;
using geom::Vec3;

namespace {

// Cell-loop chunk grain. The loops are elementwise, so the grain sets only
// load balance: 128 gives the 1,112-cell sweep mesh nine chunks.
constexpr std::size_t kCellGrain = 128;

template <class Fn>
void for_cells(std::size_t n, Fn&& body) {
  smp::ThreadPool::global().parallel_for(
      0, n, kCellGrain, [&](std::size_t b, std::size_t e, int) {
        for (std::size_t i = b; i < e; ++i) body(i);
      });
}

Vec3 boundary_normal(const CartFace& f) {
  const int a = f.axis >= 0 ? f.axis : -(f.axis + 1);
  const real_t sign = f.axis >= 0 ? 1.0 : -1.0;
  Vec3 n{};
  if (a == 0) n.x = sign;
  if (a == 1) n.y = sign;
  if (a == 2) n.z = sign;
  return n;
}

Vec3 axis_normal(int axis) {
  Vec3 n{};
  if (axis == 0) n.x = 1;
  if (axis == 1) n.y = 1;
  if (axis == 2) n.z = 1;
  return n;
}

std::array<real_t, 5> prim_array(const Prim& w) {
  return {w.rho, w.vel.x, w.vel.y, w.vel.z, w.p};
}

Prim prim_from_array(const std::array<real_t, 5>& q) {
  return {q[0], {q[1], q[2], q[3]}, q[4]};
}

template <euler::FluxScheme S>
Cons scheme_flux(const Prim& l, const Prim& r, const Vec3& n) {
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

}  // namespace

void LevelGeom::build(const CartMesh& m) {
  const std::size_t n = m.cells.size();
  const std::size_t nf = m.faces.size();
  cells = n;
  faces = nf;

  // Per-cell eps^2 with the exact expression the scalar limiter evaluated
  // per face side.
  eps2.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const real_t h = m.cell_width(m.cells[i].level, 0);
    eps2[i] = std::pow(0.3 * h, 3);
  }

  cut_cells.clear();
  for (std::size_t i = 0; i < n; ++i)
    if (m.cells[i].cut) cut_cells.push_back(index_t(i));

  // Per-face streams.
  fl.resize(nf);
  fr.resize(nf);
  axis.resize(nf);
  area.resize(nf);
  dabx.resize(nf);
  daby.resize(nf);
  dabz.resize(nf);
  dlx.resize(nf);
  dly.resize(nf);
  dlz.resize(nf);
  drx.resize(nf);
  dry.resize(nf);
  drz.resize(nf);
  for (std::size_t e = 0; e < nf; ++e) {
    const CartFace& f = m.faces[e];
    fl[e] = f.left;
    fr[e] = f.right;
    axis[e] = f.axis;
    area[e] = f.area;
    const Vec3 cl = m.cell_center(m.cells[std::size_t(f.left)]);
    const Vec3 cr = m.cell_center(m.cells[std::size_t(f.right)]);
    const Vec3 dab = cr - cl;
    dabx[e] = dab.x;
    daby[e] = dab.y;
    dabz[e] = dab.z;
    const Vec3 dl = f.center - cl;
    dlx[e] = dl.x;
    dly[e] = dl.y;
    dlz[e] = dl.z;
    const Vec3 dr = f.center - cr;
    drx[e] = dr.x;
    dry[e] = dr.y;
    drz[e] = dr.z;
  }

  // LSQ Gram matrices: accumulated in face order exactly as the scalar
  // path did (both face sides add the same six products — the offset signs
  // cancel in d_i d_j), then inverted once with the scalar expressions.
  std::vector<std::array<real_t, 6>> gram(n, {0, 0, 0, 0, 0, 0});
  for (std::size_t e = 0; e < nf; ++e) {
    const real_t dx = dabx[e], dy = daby[e], dz = dabz[e];
    const std::array<real_t, 6> p{dx * dx, dx * dy, dx * dz,
                                  dy * dy, dy * dz, dz * dz};
    auto& gl = gram[std::size_t(fl[e])];
    for (int k = 0; k < 6; ++k) gl[std::size_t(k)] += p[std::size_t(k)];
    auto& gr = gram[std::size_t(fr[e])];
    for (int k = 0; k < 6; ++k) gr[std::size_t(k)] += p[std::size_t(k)];
  }
  ginv.assign(n * kGinvStride, 0.0);
  singular.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& g = gram[i];
    const real_t a = g[0], b = g[1], c = g[2], d = g[3], e = g[4], f3 = g[5];
    const real_t det = a * (d * f3 - e * e) - b * (b * f3 - e * c) +
                       c * (b * e - d * c);
    if (std::abs(det) < 1e-30) {
      singular[i] = 1;
      continue;
    }
    const real_t inv = 1.0 / det;
    real_t* const gi = ginv.data() + i * kGinvStride;
    gi[0] = (d * f3 - e * e) * inv;
    gi[1] = (c * e - b * f3) * inv;
    gi[2] = (b * e - c * d) * inv;
    gi[3] = (a * f3 - c * c) * inv;
    gi[4] = (b * c - a * e) * inv;
    gi[5] = (a * d - b * b) * inv;
  }

  // Boundary-face streams.
  const std::size_t nb = m.boundary_faces.size();
  bfl.resize(nb);
  barea.resize(nb);
  bnx.resize(nb);
  bny.resize(nb);
  bnz.resize(nb);
  for (std::size_t e = 0; e < nb; ++e) {
    const CartFace& f = m.boundary_faces[e];
    bfl[e] = f.left;
    barea[e] = f.area;
    const Vec3 bn = boundary_normal(f);
    bnx[e] = bn.x;
    bny[e] = bn.y;
    bnz[e] = bn.z;
  }
  built = true;
}

void Scratch::resize(const LevelGeom& g, bool second_order) {
  w.resize(g.cells);
  pb.resize(g.cells * kPrimStride);
  if (second_order) {
    gb.resize(g.cells * kGradStride);
    rb.resize(g.cells * kRhsStride);
    ph.resize(g.cells * kPhiStride);
    fdq.resize(g.faces * kFdqStride);
  }
}

const smp::EdgeOwners& face_owners(const LevelGeom& g, Scratch& s) {
  return s.owners.fit(g.cells, g.fl, g.fr);
}

namespace {

// Face-sweep bodies for one face, templated on the sides the calling task
// owns (smp::for_edges_owned): a side's cell block is written only when
// its tag is set. No __restrict on the block pointers: with it GCC
// vectorizes the 5-wide component loops, and that code measured ~10%
// slower than the scalar loops on the 1,112-cell sweep mesh.

/// LSQ rhs and neighbor min/max for one face: both accumulate per cell in
/// face order, exactly as the two scalar sweeps did; they write disjoint
/// arrays.
template <bool A, bool B>
inline void lsq_minmax_face(real_t* ra, real_t* rbv, real_t* bl, real_t* br,
                            const real_t* pa, const real_t* pbv, real_t dx,
                            real_t dy, real_t dz) {
  for (std::size_t c = 0; c < 5; ++c) {
    if constexpr (A) {
      const real_t dq = pbv[c] - pa[c];
      ra[c] += dq * dx;
      ra[5 + c] += dq * dy;
      ra[10 + c] += dq * dz;
      bl[15 + c] = std::min(bl[15 + c], pbv[c]);
      bl[20 + c] = std::max(bl[20 + c], pbv[c]);
    }
    if constexpr (B) {
      const real_t dqr = pa[c] - pbv[c];
      rbv[c] += dqr * -dx;
      rbv[5 + c] += dqr * -dy;
      rbv[10 + c] += dqr * -dz;
      br[15 + c] = std::min(br[15 + c], pa[c]);
      br[20 + c] = std::max(br[20 + c], pa[c]);
    }
  }
}

/// One face side of the Venkatakrishnan limiter: the directional
/// differences g . d (same association as geom::dot) into `fd` — the
/// face's half for this side, reused bitwise by the reconstruction — then
/// phi = min(phi, venkat) per component.
inline void limit_side(real_t* fd, real_t* phi, const real_t* g,
                       const real_t* p, real_t eps2, real_t dx, real_t dy,
                       real_t dz) {
  for (std::size_t c = 0; c < 5; ++c)
    fd[c] = (g[c] * dx + g[5 + c] * dy) + g[10 + c] * dz;
  for (std::size_t c = 0; c < 5; ++c) {
    const real_t dq = fd[c];
    real_t lim = 1.0;
    if (dq > 1e-14)
      lim = venkat(g[20 + c] - p[c], dq, eps2);
    else if (dq < -1e-14)
      lim = venkat(p[c] - g[15 + c], -dq, eps2);
    phi[c] = std::min(phi[c], lim);
  }
}

/// Interior-face flux sweep. Both owners of a face cut by the split
/// evaluate its flux; each adds it into its own cell only.
template <euler::FluxScheme S>
void flux_faces(const LevelGeom& g, const smp::EdgeOwners& own,
                const Scratch& s, bool second_order, std::vector<Cons>& res) {
  const real_t* const pb = s.pb.data();
  const real_t* const ph = s.ph.data();
  const real_t* const fdq = s.fdq.data();
  const Prim* const w = s.w.data();
  Cons* const r = res.data();
  smp::for_edges_owned(own, [&](std::size_t e, auto own_a, auto own_b) {
    const std::size_t a = std::size_t(g.fl[e]);
    const std::size_t b = std::size_t(g.fr[e]);
    const Vec3 nrm = axis_normal(g.axis[e]);
    Prim wl = w[a], wr = w[b];
    if (second_order) {
      const real_t* const pa = pb + a * kPrimStride;
      const real_t* const pbv = pb + b * kPrimStride;
      const real_t* const pha = ph + a * kPhiStride;
      const real_t* const phb = ph + b * kPhiStride;
      const real_t* const fd = fdq + e * kFdqStride;
      std::array<real_t, 5> ql, qr;
      for (std::size_t c = 0; c < 5; ++c) {
        ql[c] = pa[c] + pha[c] * fd[c];
        qr[c] = pbv[c] + phb[c] * fd[5 + c];
      }
      // Exact inverse of the scalar guard (q[0] <= 0 || q[4] <= 0 falls
      // back to the cell mean) so NaN reconstructions take the same path.
      if (!(ql[0] <= 0 || ql[4] <= 0)) wl = prim_from_array(ql);
      if (!(qr[0] <= 0 || qr[4] <= 0)) wr = prim_from_array(qr);
    }
    const Cons flux = scheme_flux<S>(wl, wr, nrm);
    const real_t ar = g.area[e];
    for (std::size_t c = 0; c < 5; ++c) {
      const real_t fc = ar * flux[c];
      if constexpr (decltype(own_a)::value) r[a][c] += fc;
      if constexpr (decltype(own_b)::value) r[b][c] -= fc;
    }
  });
}

}  // namespace

void residual(const LevelGeom& g, const CartMesh& m, const Prim& freestream,
              euler::FluxScheme scheme, std::span<const Cons> u,
              bool second_order, Scratch& s, std::vector<Cons>& res) {
  const std::size_t n = g.cells;
  s.resize(g, second_order);
  res.resize(n);

  // Fused setup pass: primitive cache + zero the residual; with second
  // order also seed the limiter (phi = 1), the neighbor min/max (own
  // value) and zero the LSQ rhs blocks — all stores nothing reads before
  // the later sweeps, so fusing is bit-neutral.
  Prim* const w = s.w.data();
  real_t* const pb = s.pb.data();
  real_t* const gb = s.gb.data();
  real_t* const rb = s.rb.data();
  real_t* const ph = s.ph.data();
  Cons* const r = res.data();
  for_cells(n, [&](std::size_t i) {
    const Prim wi = euler::to_primitive(u[i]);
    w[i] = wi;
    real_t* const __restrict p = pb + i * kPrimStride;
    p[0] = wi.rho;
    p[1] = wi.vel.x;
    p[2] = wi.vel.y;
    p[3] = wi.vel.z;
    p[4] = wi.p;
    if (second_order) {
      real_t* const __restrict bl = gb + i * kGradStride;
      real_t* const __restrict rl = rb + i * kRhsStride;
      real_t* const __restrict f = ph + i * kPhiStride;
      for (std::size_t c = 0; c < 5; ++c) {
        bl[15 + c] = bl[20 + c] = p[c];  // qmin/qmax seed
        rl[c] = rl[5 + c] = rl[10 + c] = 0.0;
        f[c] = 1.0;
      }
    }
    r[i] = Cons{};
  });

  const smp::EdgeOwners& own = face_owners(g, s);
  if (second_order) {
    // LSQ rhs + neighbor min/max, fused into one owner-writes face sweep.
    const real_t* const dabx = g.dabx.data();
    const real_t* const daby = g.daby.data();
    const real_t* const dabz = g.dabz.data();
    smp::for_edges_owned(own, [&](std::size_t e, auto own_a, auto own_b) {
      const std::size_t a = std::size_t(g.fl[e]);
      const std::size_t b = std::size_t(g.fr[e]);
      lsq_minmax_face<decltype(own_a)::value, decltype(own_b)::value>(
          rb + a * kRhsStride, rb + b * kRhsStride, gb + a * kGradStride,
          gb + b * kGradStride, pb + a * kPrimStride, pb + b * kPrimStride,
          dabx[e], daby[e], dabz[e]);
    });

    // Per-cell 3x3 solves against the precomputed Gram inverses (the
    // scalar path rebuilt and re-inverted the Gram matrix every call).
    const real_t* const ginv = g.ginv.data();
    const unsigned char* const sing = g.singular.data();
    for_cells(n, [&](std::size_t i) {
      real_t* const __restrict bl = gb + i * kGradStride;
      if (sing[i]) {
        for (std::size_t c = 0; c < 15; ++c) bl[c] = 0.0;  // isolated cell
        return;
      }
      const real_t* const __restrict gi = ginv + i * kGinvStride;
      const real_t* const __restrict rl = rb + i * kRhsStride;
      for (std::size_t c = 0; c < 5; ++c) {
        const real_t rx = rl[c], ry = rl[5 + c], rz = rl[10 + c];
        bl[c] = gi[0] * rx + gi[1] * ry + gi[2] * rz;
        bl[5 + c] = gi[1] * rx + gi[3] * ry + gi[4] * rz;
        bl[10 + c] = gi[2] * rx + gi[4] * ry + gi[5] * rz;
      }
    });

    // Venkatakrishnan limiter sweep. Each side's owner caches that side's
    // half of the face's directional differences for the reconstruction.
    const real_t* const eps2 = g.eps2.data();
    real_t* const fdq = s.fdq.data();
    smp::for_edges_owned(own, [&](std::size_t e, auto own_a, auto own_b) {
      real_t* const fd = fdq + e * kFdqStride;
      if constexpr (decltype(own_a)::value) {
        const std::size_t a = std::size_t(g.fl[e]);
        limit_side(fd, ph + a * kPhiStride, gb + a * kGradStride,
                   pb + a * kPrimStride, eps2[a], g.dlx[e], g.dly[e],
                   g.dlz[e]);
      }
      if constexpr (decltype(own_b)::value) {
        const std::size_t b = std::size_t(g.fr[e]);
        limit_side(fd + 5, ph + b * kPhiStride, gb + b * kGradStride,
                   pb + b * kPrimStride, eps2[b], g.drx[e], g.dry[e],
                   g.drz[e]);
      }
    });
  }

  // Interior faces (scheme hoisted out of the sweep).
  switch (scheme) {
    case euler::FluxScheme::Roe:
      flux_faces<euler::FluxScheme::Roe>(g, own, s, second_order, res);
      break;
    case euler::FluxScheme::VanLeer:
      flux_faces<euler::FluxScheme::VanLeer>(g, own, s, second_order, res);
      break;
    case euler::FluxScheme::Rusanov:
      flux_faces<euler::FluxScheme::Rusanov>(g, own, s, second_order, res);
      break;
  }

  // Domain (farfield) boundary faces: the fluxes in parallel into a
  // per-face buffer, then added in face order (a cell may have several).
  const std::size_t nb = g.bfl.size();
  s.bflux.resize(nb);
  Cons* const bf = s.bflux.data();
  for_cells(nb, [&](std::size_t e) {
    const std::size_t i = std::size_t(g.bfl[e]);
    const Vec3 nrm{g.bnx[e], g.bny[e], g.bnz[e]};
    const Cons flux = euler::farfield_flux(w[i], freestream, nrm, scheme);
    for (std::size_t c = 0; c < 5; ++c) bf[e][c] = g.barea[e] * flux[c];
  });
  for (std::size_t e = 0; e < nb; ++e) {
    const std::size_t i = std::size_t(g.bfl[e]);
    for (std::size_t c = 0; c < 5; ++c) r[i][c] += bf[e][c];
  }

  // Embedded (cut-cell) walls: only the precomputed cut list is visited
  // (cut indices are unique, so the scatter is race-free).
  const index_t* const cut = g.cut_cells.data();
  for_cells(g.cut_cells.size(), [&](std::size_t k) {
    const std::size_t i = std::size_t(cut[k]);
    const Cons flux = euler::wall_flux(w[i], m.cells[i].wall_area);
    for (std::size_t q = 0; q < 5; ++q) r[i][q] += flux[q];
  });
}

void wave_speeds(const LevelGeom& g, const CartMesh& m,
                 std::span<const Cons> u, Scratch& s,
                 std::vector<real_t>& wave) {
  const std::size_t n = g.cells;
  s.w.resize(n);
  wave.assign(n, 0.0);
  Prim* const w = s.w.data();
  real_t* const wv = wave.data();
  for_cells(n, [&](std::size_t i) { w[i] = euler::to_primitive(u[i]); });
  smp::for_edges_owned(face_owners(g, s), [&](std::size_t e, auto own_a,
                                              auto own_b) {
    const Vec3 nrm = axis_normal(g.axis[e]);
    if constexpr (decltype(own_a)::value) {
      const std::size_t a = std::size_t(g.fl[e]);
      wv[a] += euler::spectral_radius(w[a], nrm) * g.area[e];
    }
    if constexpr (decltype(own_b)::value) {
      const std::size_t b = std::size_t(g.fr[e]);
      wv[b] += euler::spectral_radius(w[b], nrm) * g.area[e];
    }
  });
  for (std::size_t e = 0; e < g.bfl.size(); ++e) {
    const std::size_t i = std::size_t(g.bfl[e]);
    wv[i] += euler::spectral_radius(w[i], Vec3{g.bnx[e], g.bny[e], g.bnz[e]}) *
             g.barea[e];
  }
  const index_t* const cut = g.cut_cells.data();
  for_cells(g.cut_cells.size(), [&](std::size_t k) {
    const std::size_t i = std::size_t(cut[k]);
    const Vec3& wa = m.cells[i].wall_area;
    wv[i] += euler::spectral_radius(w[i], normalized(wa)) * norm(wa);
  });
}

// --- Scalar reference: verbatim retention of the pre-SoA residual. ---

void residual_reference(const CartMesh& m, const Prim& freestream,
                        euler::FluxScheme scheme, std::span<const Cons> u,
                        bool second_order, ReferenceScratch& ws,
                        std::vector<Cons>& res) {
  const std::size_t n = m.cells.size();
  res.assign(n, Cons{});

  ws.w.resize(n);
  auto& w = ws.w;
  for (std::size_t i = 0; i < n; ++i) w[i] = euler::to_primitive(u[i]);

  auto& grad = ws.grad;
  auto& phi = ws.phi;
  if (second_order) {
    grad.assign(n, {});
    phi.assign(n, {1, 1, 1, 1, 1});

    ws.gram.assign(n, std::array<real_t, 6>{0, 0, 0, 0, 0, 0});
    ws.rhs.assign(n, std::array<Vec3, 5>{});
    auto& gram = ws.gram;
    auto& rhs = ws.rhs;
    auto accumulate = [&](index_t a, index_t b) {
      const Vec3 d = m.cell_center(m.cells[std::size_t(b)]) -
                     m.cell_center(m.cells[std::size_t(a)]);
      auto& g = gram[std::size_t(a)];
      g[0] += d.x * d.x;
      g[1] += d.x * d.y;
      g[2] += d.x * d.z;
      g[3] += d.y * d.y;
      g[4] += d.y * d.z;
      g[5] += d.z * d.z;
      const auto qa = prim_array(w[std::size_t(a)]);
      const auto qb = prim_array(w[std::size_t(b)]);
      for (int c = 0; c < 5; ++c)
        rhs[std::size_t(a)][std::size_t(c)] +=
            (qb[std::size_t(c)] - qa[std::size_t(c)]) * d;
    };
    for (const CartFace& f : m.faces) {
      accumulate(f.left, f.right);
      accumulate(f.right, f.left);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto& g = gram[i];
      const real_t a = g[0], b = g[1], c = g[2], d = g[3], e = g[4],
                   f3 = g[5];
      const real_t det = a * (d * f3 - e * e) - b * (b * f3 - e * c) +
                         c * (b * e - d * c);
      if (std::abs(det) < 1e-30) continue;  // isolated cell: keep zero grad
      const real_t inv = 1.0 / det;
      const real_t i00 = (d * f3 - e * e) * inv;
      const real_t i01 = (c * e - b * f3) * inv;
      const real_t i02 = (b * e - c * d) * inv;
      const real_t i11 = (a * f3 - c * c) * inv;
      const real_t i12 = (b * c - a * e) * inv;
      const real_t i22 = (a * d - b * b) * inv;
      for (int q = 0; q < 5; ++q) {
        const Vec3 rv = rhs[i][std::size_t(q)];
        grad[i][std::size_t(q)] = {i00 * rv.x + i01 * rv.y + i02 * rv.z,
                                   i01 * rv.x + i11 * rv.y + i12 * rv.z,
                                   i02 * rv.x + i12 * rv.y + i22 * rv.z};
      }
    }

    ws.qmin.resize(n);
    ws.qmax.resize(n);
    auto& qmin = ws.qmin;
    auto& qmax = ws.qmax;
    for (std::size_t i = 0; i < n; ++i) qmin[i] = qmax[i] = prim_array(w[i]);
    auto minmax = [&](index_t a, index_t b) {
      const auto qb = prim_array(w[std::size_t(b)]);
      for (int c = 0; c < 5; ++c) {
        qmin[std::size_t(a)][std::size_t(c)] =
            std::min(qmin[std::size_t(a)][std::size_t(c)], qb[std::size_t(c)]);
        qmax[std::size_t(a)][std::size_t(c)] =
            std::max(qmax[std::size_t(a)][std::size_t(c)], qb[std::size_t(c)]);
      }
    };
    for (const CartFace& f : m.faces) {
      minmax(f.left, f.right);
      minmax(f.right, f.left);
    }
    auto limit_at = [&](index_t i, const Vec3& to_face) {
      const auto qi = prim_array(w[std::size_t(i)]);
      const real_t h = m.cell_width(m.cells[std::size_t(i)].level, 0);
      const real_t eps2 = std::pow(0.3 * h, 3);
      for (int c = 0; c < 5; ++c) {
        const real_t dq = dot(grad[std::size_t(i)][std::size_t(c)], to_face);
        real_t lim = 1.0;
        if (dq > 1e-14)
          lim = venkat(qmax[std::size_t(i)][std::size_t(c)] - qi[std::size_t(c)],
                       dq, eps2);
        else if (dq < -1e-14)
          lim = venkat(qi[std::size_t(c)] - qmin[std::size_t(i)][std::size_t(c)],
                       -dq, eps2);
        phi[std::size_t(i)][std::size_t(c)] =
            std::min(phi[std::size_t(i)][std::size_t(c)], lim);
      }
    };
    for (const CartFace& f : m.faces) {
      limit_at(f.left, f.center - m.cell_center(m.cells[std::size_t(f.left)]));
      limit_at(f.right,
               f.center - m.cell_center(m.cells[std::size_t(f.right)]));
    }
  }

  auto reconstruct = [&](index_t i, const Vec3& face_center) -> Prim {
    if (!second_order) return w[std::size_t(i)];
    const Vec3 d = face_center - m.cell_center(m.cells[std::size_t(i)]);
    auto q = prim_array(w[std::size_t(i)]);
    for (int c = 0; c < 5; ++c)
      q[std::size_t(c)] += phi[std::size_t(i)][std::size_t(c)] *
                           dot(grad[std::size_t(i)][std::size_t(c)], d);
    if (q[0] <= 0 || q[4] <= 0) return w[std::size_t(i)];
    return prim_from_array(q);
  };

  for (const CartFace& f : m.faces) {
    const Vec3 nrm = axis_normal(f.axis);
    const Prim wl = reconstruct(f.left, f.center);
    const Prim wr = reconstruct(f.right, f.center);
    const Cons flux = euler::numerical_flux(wl, wr, nrm, scheme);
    for (int c = 0; c < 5; ++c) {
      res[std::size_t(f.left)][std::size_t(c)] += f.area * flux[std::size_t(c)];
      res[std::size_t(f.right)][std::size_t(c)] -= f.area * flux[std::size_t(c)];
    }
  }

  for (const CartFace& f : m.boundary_faces) {
    const Vec3 nrm = boundary_normal(f);
    const Cons flux =
        euler::farfield_flux(w[std::size_t(f.left)], freestream, nrm, scheme);
    for (int c = 0; c < 5; ++c)
      res[std::size_t(f.left)][std::size_t(c)] += f.area * flux[std::size_t(c)];
  }

  for (std::size_t i = 0; i < n; ++i) {
    const CartCell& c = m.cells[i];
    if (!c.cut) continue;
    const Cons flux = euler::wall_flux(w[i], c.wall_area);
    for (int q = 0; q < 5; ++q) res[i][std::size_t(q)] += flux[std::size_t(q)];
  }
}

}  // namespace columbia::cart3d::kernels
