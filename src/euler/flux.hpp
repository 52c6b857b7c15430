// Inviscid numerical fluxes.
//
// Cart3D uses a second-order cell-centered upwind scheme; NSU3D uses a
// second-order node-centered upwind-biased scheme (paper Secs. III, V).
// Both reduce at a face to a Riemann flux between reconstructed left and
// right states. We provide Roe's approximate Riemann solver (with an
// entropy fix), van Leer flux-vector splitting, and Rusanov (local
// Lax-Friedrichs) as a robust fallback.
//
// The Riemann solvers are defined inline: the SoA kernel layer calls them
// from the per-edge/per-face hot loops, where the call overhead and lost
// register allocation of an out-of-line call are measurable. The inline
// bodies are the single definition — the out-of-line dispatch in flux.cpp
// wraps these same functions, so both entry points produce bit-identical
// values. Roe's flux (with the physical flux and the Venkatakrishnan
// limiter) is lane-generic, euler/lane_kernels.inc: Cart3D's face sweeps
// evaluate it four faces at a time, every other caller one.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>

#include "euler/lanes.hpp"
#include "euler/state.hpp"

namespace columbia::euler {

enum class FluxScheme { Roe, VanLeer, Rusanov };

#include "euler/lane_kernels.inc"

namespace detail {

inline LanePrim<real_t> lane_prim(const Prim& w) {
  return {w.rho, {w.vel.x, w.vel.y, w.vel.z}, w.p};
}
inline LaneVec3<real_t> lane_vec(const geom::Vec3& n) { return {n.x, n.y, n.z}; }

}  // namespace detail

/// Physical (analytic) flux through unit normal n.
inline Cons physical_flux(const Prim& w, const geom::Vec3& n) {
  return physical_flux(detail::lane_prim(w), detail::lane_vec(n));
}

/// Spectral radius |u.n| + a: the wave-speed bound used in time steps.
inline real_t spectral_radius(const Prim& w, const geom::Vec3& unit_n) {
  return std::abs(dot(w.vel, unit_n)) + w.sound_speed();
}

/// Roe's flux: the one-lane instantiation of the lane-generic roe_flux.
inline Cons roe_flux(const Prim& l, const Prim& r, const geom::Vec3& n) {
  return roe_flux(detail::lane_prim(l), detail::lane_prim(r),
                  detail::lane_vec(n));
}

inline Cons van_leer_flux(const Prim& l, const Prim& r, const geom::Vec3& n) {
  auto split = [&](const Prim& w, real_t sign) {
    const real_t a = w.sound_speed();
    const real_t un = dot(w.vel, n);
    const real_t m = un / a;
    Cons f{};
    // Supersonic limits: F+ carries the full flux when m >= 1 and nothing
    // when m <= -1; F- is the mirror image.
    if (sign > 0) {
      if (m >= 1.0) return physical_flux(w, n);
      if (m <= -1.0) return Cons{};
    } else {
      if (m <= -1.0) return physical_flux(w, n);
      if (m >= 1.0) return Cons{};
    }
    // Subsonic split flux.
    const real_t fmass = sign * 0.25 * w.rho * a * (m + sign) * (m + sign);
    const real_t common = (-un + sign * 2 * a) / kGamma;
    f[0] = fmass;
    f[1] = fmass * (w.vel.x + n.x * common);
    f[2] = fmass * (w.vel.y + n.y * common);
    f[3] = fmass * (w.vel.z + n.z * common);
    const real_t term = ((kGamma - 1) * un + sign * 2 * a);
    f[4] = fmass * (0.5 * (dot(w.vel, w.vel) - un * un) +
                    term * term / (2 * (kGamma * kGamma - 1)));
    return f;
  };
  const Cons fp = split(l, +1.0);
  const Cons fm = split(r, -1.0);
  return fp + fm;
}

inline Cons rusanov_flux(const Prim& l, const Prim& r, const geom::Vec3& n) {
  const real_t s = std::max(spectral_radius(l, n), spectral_radius(r, n));
  const Cons ul = to_conservative(l), ur = to_conservative(r);
  const Cons fl = physical_flux(l, n), fr = physical_flux(r, n);
  Cons f;
  for (int i = 0; i < 5; ++i)
    f[std::size_t(i)] = 0.5 * (fl[std::size_t(i)] + fr[std::size_t(i)]) -
                        0.5 * s * (ur[std::size_t(i)] - ul[std::size_t(i)]);
  return f;
}

/// Numerical flux across a face with *unit* normal n and the given left and
/// right states. All schemes are consistent (F(w,w,n) = physical_flux) and
/// conservative (F(l,r,n) = -F(r,l,-n)).
Cons numerical_flux(const Prim& left, const Prim& right, const geom::Vec3& n,
                    FluxScheme scheme);

/// Flux through a solid wall (pressure only; exact for slip walls).
inline Cons wall_flux(const Prim& w, const geom::Vec3& n) {
  // Slip wall: only the pressure term survives (u.n = 0 enforced weakly).
  return {0, w.p * n.x, w.p * n.y, w.p * n.z, 0};
}

/// Characteristic farfield flux: switches between inflow/outflow using the
/// freestream state (1D Riemann invariants along the boundary normal).
Cons farfield_flux(const Prim& interior, const Prim& freestream,
                   const geom::Vec3& unit_n, FluxScheme scheme);

}  // namespace columbia::euler
