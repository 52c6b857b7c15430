// SoA kernel layer for the Cart3D residual.
//
// The scalar residual recomputed nearly all of its geometry every call:
// cell centers (bit arithmetic per access), face offset vectors, the
// least-squares Gram matrices and their 3x3 inverses, and the limiter's
// eps^2 = (0.3 h)^3 (a pow per face side). All of it is pure geometry —
// constant per mesh level — so LevelGeom hoists it into per-level SoA
// streams built once: per-face endpoint/offset/normal streams in face
// storage order, per-cell centers, Gram inverses (+ singular flag) and
// eps^2. The residual then runs three face sweeps (LSQ rhs + neighbor
// min/max fused; limiter; flux) over unit-stride streams plus blocked
// per-cell state, with the limiter's directional differences cached per
// face and reused bitwise by the reconstruction (identical expression,
// identical inputs). Every face sweep is owner-writes (smp/owners.hpp):
// one pool task per contiguous cell range adds only into its own cells,
// in ascending face order.
//
// Bit-identity contract: every kernel performs exactly the arithmetic of
// the retained scalar reference (residual_reference below) in the same
// per-cell accumulation order, for every thread count. Hoisted values
// (Gram inverses, eps^2, offsets) are computed with the same expressions
// the scalar path evaluated per call. Negated offsets rely only on
// fl(-t) == -fl(t).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "cartesian/cart_mesh.hpp"
#include "euler/flux.hpp"
#include "smp/owners.hpp"
#include "support/types.hpp"

namespace columbia::cart3d::kernels {

using euler::Cons;
using euler::Prim;

// Strides (in real_t) of the per-cell component blocks; padded so a block
// never straddles an extra cache line.
inline constexpr std::size_t kPrimStride = 8;   // [rho,u,v,w,p] + pad
inline constexpr std::size_t kGradStride = 32;  // [gx 5][gy 5][gz 5][min 5][max 5] + pad
inline constexpr std::size_t kRhsStride = 16;   // [rx 5][ry 5][rz 5] + pad
inline constexpr std::size_t kPhiStride = 8;    // [phi 5] + pad
inline constexpr std::size_t kFdqStride = 10;   // per face: [g.dl 5][g.dr 5]
inline constexpr std::size_t kGinvStride = 8;   // [i00,i01,i02,i11,i12,i22] + pad

/// Per-level geometry, built once per mesh level (everything here is a
/// pure function of the mesh).
struct LevelGeom {
  bool built = false;
  std::size_t cells = 0, faces = 0;

  // Per-cell streams.
  std::vector<real_t> eps2;  // venkat (0.3 h)^3, the scalar path's pow
  std::vector<real_t> ginv;  // kGinvStride-blocked LSQ Gram inverse
  std::vector<unsigned char> singular;  // |det| < 1e-30: keep zero gradient
  std::vector<index_t> cut_cells;       // indices of cut cells, in order

  // Per interior-face streams (face storage order).
  std::vector<index_t> fl, fr;
  std::vector<std::int8_t> axis;
  std::vector<real_t> area;
  std::vector<real_t> dabx, daby, dabz;  // center(right) - center(left)
  std::vector<real_t> dlx, dly, dlz;     // face center - center(left)
  std::vector<real_t> drx, dry, drz;     // face center - center(right)

  // Per boundary-face streams.
  std::vector<index_t> bfl;
  std::vector<real_t> barea;
  std::vector<real_t> bnx, bny, bnz;

  void build(const cartesian::CartMesh& m);
};

/// Per-level SoA scratch (persistent across sweeps).
struct Scratch {
  std::vector<Prim> w;      // AoS primitives (what the Riemann solvers eat)
  std::vector<real_t> pb;   // kPrimStride-blocked primitive scalars
  std::vector<real_t> gb;   // kGradStride-blocked gradients + min/max
  std::vector<real_t> rb;   // kRhsStride-blocked LSQ right-hand sides
  std::vector<real_t> ph;   // kPhiStride-blocked limiter values
  std::vector<real_t> fdq;  // kFdqStride per-face directional differences
  std::vector<Cons> bflux;  // per boundary face: area * farfield flux
  /// Interior-face owner lists (smp/owners.hpp), built on first use for
  /// the pool width.
  smp::EdgeOwners owners;
  void resize(const LevelGeom& g, bool second_order);
};

/// The owner lists the face sweeps use: `s.owners`, rebuilt first when the
/// pool width or the level's size no longer match it.
const smp::EdgeOwners& face_owners(const LevelGeom& g, Scratch& s);

/// Full second-/first-order residual against the precomputed geometry.
/// Bit-identical to residual_reference for every thread count.
void residual(const LevelGeom& g, const cartesian::CartMesh& m,
              const Prim& freestream, euler::FluxScheme scheme,
              std::span<const Cons> u, bool second_order, Scratch& s,
              std::vector<Cons>& res);

/// Local time-step denominators sum(|lambda| A) per cell of state `u` —
/// interior faces, then domain boundary faces, then the embedded wall —
/// into `wave`. Leaves the primitives of `u` in s.w.
void wave_speeds(const LevelGeom& g, const cartesian::CartMesh& m,
                 std::span<const Cons> u, Scratch& s,
                 std::vector<real_t>& wave);

// --- Retained scalar reference path ---

/// Scratch for the scalar reference (the pre-SoA workspace layout).
struct ReferenceScratch {
  std::vector<Prim> w;
  std::vector<std::array<geom::Vec3, 5>> grad;
  std::vector<std::array<real_t, 5>> phi, qmin, qmax;
  std::vector<std::array<real_t, 6>> gram;
  std::vector<std::array<geom::Vec3, 5>> rhs;
};

/// Serial scalar residual: a verbatim retention of the pre-SoA loops
/// (geometry recomputed per call, AoS state). The equivalence tests assert
/// the SoA path reproduces it bit for bit; micro_kernels times it as the
/// seed-replica baseline.
void residual_reference(const cartesian::CartMesh& m, const Prim& freestream,
                        euler::FluxScheme scheme, std::span<const Cons> u,
                        bool second_order, ReferenceScratch& s,
                        std::vector<Cons>& res);

}  // namespace columbia::cart3d::kernels
