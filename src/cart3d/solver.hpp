// Cart3D-style flow solver: cell-centered finite-volume Euler on the
// multilevel Cartesian cut-cell mesh.
//
// Per the paper (Sec. V): "a second-order cell-centered, finite-volume
// upwind spatial discretization combined with a multigrid accelerated
// Runge-Kutta scheme for advance to steady-state". The multigrid hierarchy
// comes from the single-pass SFC coarsener; restriction/prolongation are
// volume-weighted averaging and piecewise-constant injection through the
// fine-to-coarse cell maps (FAS formulation, V- or W-cycles as in Fig. 4).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "cart3d/kernels.hpp"
#include "cartesian/coarsen.hpp"
#include "core/multigrid.hpp"
#include "core/params.hpp"
#include "euler/flux.hpp"
#include "euler/state.hpp"
#include "resil/checkpoint.hpp"
#include "resil/guard.hpp"
#include "support/types.hpp"

namespace columbia::cart3d {

using CycleType = core::CycleType;  // shared cycle vocabulary (core/)

/// Cycle-control fields (mg_levels, cycle, cfl, smoothing steps,
/// correction damping, second_order) live in core::SolveParams; only the
/// Cartesian-specific knobs are added here.
struct SolverOptions : core::SolveParams {
  SolverOptions() {
    mg_levels = 1;  // 1 = single grid
    cfl = 1.2;
    smooth_steps = 2;  // RK smoothing steps per level visit
  }
  euler::FluxScheme flux = euler::FluxScheme::Roe;
  cartesian::SfcKind sfc = cartesian::SfcKind::PeanoHilbert;
};

/// Aerodynamic force/moment integrals over the embedded surface.
struct Forces {
  geom::Vec3 force;   // pressure force vector (nondimensional)
  real_t cl = 0;      // lift coefficient direction (z in body axes)
  real_t cd = 0;      // drag (freestream direction)
};

/// Work performed per multigrid level in one cycle; the machine model
/// consumes these together with the partition communication graphs.
struct LevelWork {
  index_t cells = 0;
  index_t faces = 0;
  index_t visits_per_cycle = 0;  // W-cycle visits coarse levels 2^(l-1) times
};

class Cart3DSolver {
 public:
  Cart3DSolver(const cartesian::CartMesh& mesh,
               const euler::FlowConditions& conditions,
               const SolverOptions& options = {});

  /// Runs one multigrid cycle (or one smoothing iteration when
  /// mg_levels == 1); returns the fine-grid density-residual L2 norm.
  real_t run_cycle();

  /// Cycles until the residual drops by `orders` orders of magnitude or
  /// `max_cycles` elapse; returns the history of residual norms.
  std::vector<real_t> solve(int max_cycles, real_t orders = 6);

  /// Guarded solve: per-cycle NaN/blow-up detection, rollback to the last
  /// good checkpoint with CFL backoff, optional durable checkpoint +
  /// resume (see resil::guarded_solve). With faults off and no recovery
  /// triggered, the history matches solve() bit for bit.
  resil::GuardedSolveResult solve_guarded(
      int max_cycles, real_t orders = 6,
      const resil::GuardedSolveOptions& options = {});

  /// Snapshot of the fine-grid state plus cycle/history. Coarse-level
  /// state is rebuilt by the next cycle's FAS restriction, so restoring
  /// this checkpoint reproduces the uninterrupted residual history
  /// bit-identically.
  resil::Checkpoint make_checkpoint(std::uint64_t cycle,
                                    std::span<const real_t> history) const;

  /// Restores a checkpoint from make_checkpoint; throws std::runtime_error
  /// when the solver tag or state size does not match this configuration.
  void restore_checkpoint(const resil::Checkpoint& c);

  const std::vector<euler::Cons>& solution() const { return state_[0]; }
  /// Current state of any level (coarse levels hold the latest FAS
  /// restriction) — read-only, for per-level halo exchanges driven off
  /// the level hooks.
  const std::vector<euler::Cons>& solution(int level) const {
    return state_[std::size_t(level)];
  }
  const cartesian::CartMesh& mesh(int level = 0) const {
    return hierarchy_.levels[std::size_t(level)];
  }
  int num_levels() const { return int(hierarchy_.levels.size()); }

  /// Read-only level-visit hooks (core::MultigridDriver::set_level_hooks):
  /// `begin` fires on entry to a level visit, `end` right after its
  /// pre-smoother — the post()/finish() anchor points for split halo
  /// exchanges. Hooks must not mutate solver state; histories stay
  /// bit-identical with hooks installed or absent.
  void set_level_hooks(std::function<void(int)> begin,
                       std::function<void(int)> end) {
    driver_.set_level_hooks(std::move(begin), std::move(end));
  }

  Forces integrate_forces() const;

  /// Per-level cell/face counts with W/V visit multiplicity.
  std::vector<LevelWork> level_work() const;

  /// Density residual norm of the current fine-grid state.
  real_t residual_norm();

  /// Residual of `u` on `level` (public so benchmarks and equivalence
  /// tests can drive the hot kernel directly). Cell loops run on the
  /// shared-memory pool in SFC-contiguous chunks and face sweeps are
  /// owner-writes; results are bit-identical for every thread count.
  void compute_residual(int level, const std::vector<euler::Cons>& u,
                        std::vector<euler::Cons>& res, bool second_order);

 private:
  friend class core::MultigridDriver<Cart3DSolver>;

  SolverOptions opt_;
  euler::FlowConditions cond_;
  euler::Prim freestream_;
  cartesian::CartHierarchy hierarchy_;

  // Per level: state, residual, FAS forcing, gradients (level 0 only).
  std::vector<std::vector<euler::Cons>> state_;
  std::vector<std::vector<euler::Cons>> forcing_;
  std::vector<std::vector<euler::Cons>> residual_;
  /// residual_current_[l]: residual_[l] was computed from the present
  /// state_[l]. Cleared by every write to state_[l] and by the public
  /// compute_residual; lets a smoothing stage reuse the residual that
  /// residual_norm() or the FAS restriction just computed.
  std::vector<char> residual_current_;

  /// Persistent per-level scratch so steady-state cycles perform no heap
  /// allocation (vectors keep capacity across sweeps).
  struct Workspace {
    kernels::LevelGeom geom;  // per-level geometry precompute (lazy-built)
    kernels::Scratch k;       // SoA residual + wave-speed scratch
    std::vector<real_t> wave;    // sum |lambda| A
    std::vector<euler::Cons> u0;                   // RK stage base state
    // Restriction scratch (coarse-level sized).
    std::vector<real_t> vol;
    std::vector<euler::Cons> transferred;
  };
  std::vector<Workspace> work_;

  /// Cycle orchestration (level walk, convergence loop, guard wiring,
  /// telemetry, fault hooks) lives in the shared driver; this class keeps
  /// only the physics it feeds the driver.
  core::MultigridDriver<Cart3DSolver> driver_{"cart3d"};

  void smooth(int level, int steps);
  const kernels::LevelGeom& level_geom(int level);  // built on first use
  /// Residual of state_[level] into residual_[level] (second order on
  /// level 0 when enabled), computed only when residual_current_ is clear.
  const std::vector<euler::Cons>& level_residual(int level);
  void residual_into(int level, const std::vector<euler::Cons>& u,
                     std::vector<euler::Cons>& res, bool second_order);
  /// Marks state_[level] as written (its held residual is stale).
  void state_changed(int level) { residual_current_[std::size_t(level)] = 0; }
  void restrict_to(int level);        // level -> level+1 (state + forcing)
  void prolong_correction(int level); // level+1 -> level

  // --- Adapter surface consumed by core::MultigridDriver ---
  const core::SolveParams& solve_params() const { return opt_; }
  std::size_t state_count() const { return state_[0].size(); }
  void poison_state(std::size_t i);
  void apply_backoff(const resil::GuardOptions& g);
  void telemetry_forces(double& cl, double& cd) const;

  // Scratch for prolongation: coarse state as restricted before smoothing.
  std::vector<std::vector<euler::Cons>> restricted_snapshot_;
};

}  // namespace columbia::cart3d
