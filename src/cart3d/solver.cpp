#include "cart3d/solver.hpp"

#include "cart3d/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/obs.hpp"
#include "resil/faults.hpp"
#include "smp/pool.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace columbia::cart3d {

using cartesian::CartMesh;
using euler::Cons;
using euler::Prim;
using geom::Vec3;

namespace {

// Cell-loop chunk grain. Cells are stored in SFC order, so contiguous
// chunks are spatially compact (cache/NUMA friendly). Fixed constant so
// chunk boundaries never depend on the thread count (determinism).
constexpr std::size_t kCellGrain = 512;

/// Elementwise (no cross-index writes) loop over the cells [0, n).
template <class Fn>
void for_cells(std::size_t n, Fn&& body) {
  smp::ThreadPool::global().parallel_for(
      0, n, kCellGrain, [&](std::size_t b, std::size_t e, int) {
        for (std::size_t i = b; i < e; ++i) body(i);
      });
}

}  // namespace

Cart3DSolver::Cart3DSolver(const CartMesh& mesh,
                           const euler::FlowConditions& conditions,
                           const SolverOptions& options)
    : opt_(options), cond_(conditions), freestream_(conditions.freestream()) {
  COLUMBIA_REQUIRE(opt_.mg_levels >= 1);
  hierarchy_ = cartesian::build_hierarchy(mesh, opt_.mg_levels, opt_.sfc);
  const std::size_t nl = hierarchy_.levels.size();
  state_.resize(nl);
  forcing_.resize(nl);
  residual_.resize(nl);
  restricted_snapshot_.resize(nl);
  residual_current_.assign(nl, 0);
  work_.resize(nl);
  const Cons uinf = euler::to_conservative(freestream_);
  for (std::size_t l = 0; l < nl; ++l) {
    const std::size_t n = hierarchy_.levels[l].cells.size();
    state_[l].assign(n, uinf);
    forcing_[l].assign(n, Cons{});
    residual_[l].assign(n, Cons{});
  }
  if (obs::enabled())
    obs::gauge("cart3d.cut_cells")
        .set(std::uint64_t(hierarchy_.levels[0].num_cut_cells()));
}

const kernels::LevelGeom& Cart3DSolver::level_geom(int level) {
  Workspace& ws = work_[std::size_t(level)];
  if (!ws.geom.built)  // pure geometry, built once
    ws.geom.build(hierarchy_.levels[std::size_t(level)]);
  return ws.geom;
}

void Cart3DSolver::compute_residual(int level, const std::vector<Cons>& u,
                                    std::vector<Cons>& res,
                                    bool second_order) {
  state_changed(level);  // a caller's res may be this level's residual
  residual_into(level, u, res, second_order);
}

void Cart3DSolver::residual_into(int level, const std::vector<Cons>& u,
                                 std::vector<Cons>& res, bool second_order) {
  OBS_SPAN("cart3d.residual", "level", level);
  const kernels::LevelGeom& g = level_geom(level);
  kernels::residual(g, hierarchy_.levels[std::size_t(level)], freestream_,
                    opt_.flux, u, second_order, work_[std::size_t(level)].k,
                    res);
}

const std::vector<Cons>& Cart3DSolver::level_residual(int level) {
  const std::size_t k = std::size_t(level);
  if (!residual_current_[k]) {
    residual_into(level, state_[k], residual_[k],
                  opt_.second_order && level == 0);
    residual_current_[k] = 1;
  }
  return residual_[k];
}

void Cart3DSolver::smooth(int level, int steps) {
  OBS_SPAN("cart3d.smooth", "level", level);
  const CartMesh& m = hierarchy_.levels[std::size_t(level)];
  Workspace& ws = work_[std::size_t(level)];
  std::vector<Cons>& u = state_[std::size_t(level)];
  const std::vector<Cons>& f = forcing_[std::size_t(level)];
  const std::size_t n = m.cells.size();

  // Local time step: dt_i = CFL * V_i / sum(|lambda| A).
  kernels::wave_speeds(level_geom(level), m, u, ws.k, ws.wave);
  const std::vector<real_t>& wave = ws.wave;

  // Three-stage Runge-Kutta smoother (Jameson-style coefficients).
  static constexpr real_t kAlpha[3] = {0.1481, 0.4, 1.0};
  for (int step = 0; step < steps; ++step) {
    ws.u0.assign(u.begin(), u.end());
    const std::vector<Cons>& u0 = ws.u0;
    for (real_t alpha : kAlpha) {
      // The first stage may reuse the residual residual_norm() or the FAS
      // restriction just computed from this same state.
      const std::vector<Cons>& r = level_residual(level);
      for_cells(n, [&](std::size_t i) {
        const real_t v = m.cell_volume(m.cells[i]);
        if (wave[i] <= 0 || v <= 0) return;
        const real_t dt = opt_.cfl * v / wave[i];
        Cons unew = u0[i];
        for (int c = 0; c < 5; ++c)
          unew[std::size_t(c)] -= alpha * dt / v *
                                  (r[i][std::size_t(c)] - f[i][std::size_t(c)]);
        if (euler::is_valid(unew)) u[i] = unew;
        // else: keep the previous stage value (positivity guard).
      });
      state_changed(level);
    }
  }
}

void Cart3DSolver::restrict_to(int level) {
  const auto& map = hierarchy_.maps[std::size_t(level)];
  const CartMesh& fine = hierarchy_.levels[std::size_t(level)];
  const CartMesh& coarse = hierarchy_.levels[std::size_t(level) + 1];
  std::vector<Cons>& uc = state_[std::size_t(level) + 1];
  std::vector<Cons>& fc = forcing_[std::size_t(level) + 1];
  const std::size_t nc = coarse.cells.size();

  // Volume-weighted state restriction.
  Workspace& wsc = work_[std::size_t(level) + 1];
  wsc.vol.assign(nc, 0.0);
  std::vector<real_t>& vol = wsc.vol;
  uc.assign(nc, Cons{});
  for (std::size_t i = 0; i < fine.cells.size(); ++i) {
    const std::size_t j = std::size_t(map[i]);
    const real_t v = fine.cell_volume(fine.cells[i]);
    vol[j] += v;
    for (int c = 0; c < 5; ++c)
      uc[j][std::size_t(c)] += v * state_[std::size_t(level)][i][std::size_t(c)];
  }
  for (std::size_t j = 0; j < nc; ++j) {
    if (vol[j] <= 0) {
      uc[j] = euler::to_conservative(freestream_);
      continue;
    }
    for (int c = 0; c < 5; ++c) uc[j][std::size_t(c)] /= vol[j];
  }
  restricted_snapshot_[std::size_t(level) + 1] = uc;
  state_changed(level + 1);

  // FAS forcing: f_c = R_c(restricted u) - I(R_f(u) - f_f). The fine
  // residual must come from the operator actually being solved on that
  // level (second order on the finest grid), else the coarse correction
  // targets the wrong equation and multigrid stalls.
  const std::vector<Cons>& rf = level_residual(level);
  wsc.transferred.assign(nc, Cons{});
  std::vector<Cons>& transferred = wsc.transferred;
  for (std::size_t i = 0; i < fine.cells.size(); ++i) {
    const std::size_t j = std::size_t(map[i]);
    for (int c = 0; c < 5; ++c)
      transferred[j][std::size_t(c)] +=
          rf[i][std::size_t(c)] -
          forcing_[std::size_t(level)][i][std::size_t(c)];
  }
  // Held for the coarse visit's first smoothing stage.
  const std::vector<Cons>& rc = level_residual(level + 1);
  fc.assign(nc, Cons{});
  for (std::size_t j = 0; j < nc; ++j)
    for (int c = 0; c < 5; ++c)
      fc[j][std::size_t(c)] =
          rc[j][std::size_t(c)] - transferred[j][std::size_t(c)];
}

// The driver's post-smoothing step after this correction is load-bearing:
// it damps the high-frequency error injected by the piecewise-constant
// prolongation, which the limited second-order fine operator would
// otherwise amplify.
void Cart3DSolver::prolong_correction(int level) {
  const auto& map = hierarchy_.maps[std::size_t(level)];
  const std::vector<Cons>& uc = state_[std::size_t(level) + 1];
  const std::vector<Cons>& snap = restricted_snapshot_[std::size_t(level) + 1];
  std::vector<Cons>& uf = state_[std::size_t(level)];
  for_cells(uf.size(), [&](std::size_t i) {
    const std::size_t j = std::size_t(map[i]);
    Cons unew = uf[i];
    for (int c = 0; c < 5; ++c)
      unew[std::size_t(c)] += opt_.correction_damping *
                              (uc[j][std::size_t(c)] - snap[j][std::size_t(c)]);
    if (euler::is_valid(unew)) uf[i] = unew;
  });
  state_changed(level);
}

real_t Cart3DSolver::residual_norm() {
  const std::vector<Cons>& r0 = level_residual(0);
  const CartMesh& m = hierarchy_.levels[0];
  // Deterministic tree reduction: fixed chunking, partials combined in
  // chunk order, so the norm is bit-identical for every thread count.
  const real_t sum = smp::ThreadPool::global().reduce_sum(
      0, r0.size(), kCellGrain, [&](std::size_t b, std::size_t e) {
        real_t s = 0;
        for (std::size_t i = b; i < e; ++i) {
          const real_t v = m.cell_volume(m.cells[i]);
          if (v <= 0) continue;
          const real_t r = r0[i][0] / v;
          s += r * r;
        }
        return s;
      });
  return std::sqrt(sum / real_t(std::max<std::size_t>(1, r0.size())));
}

real_t Cart3DSolver::run_cycle() { return driver_.run_cycle(*this); }

/// Fault hook (COLUMBIA_FAULTS state_nan): poison one energy entry after
/// the cycle's updates so the guard sees a non-finite residual.
void Cart3DSolver::poison_state(std::size_t i) {
  state_changed(0);
  state_[0][i][4] = std::numeric_limits<real_t>::quiet_NaN();
}

resil::Checkpoint Cart3DSolver::make_checkpoint(
    std::uint64_t cycle, std::span<const real_t> history) const {
  resil::Checkpoint c;
  c.solver = "cart3d";
  c.cycle = cycle;
  c.state_stride = 5;
  c.history.assign(history.begin(), history.end());
  c.state.reserve(state_[0].size() * 5);
  for (const euler::Cons& s : state_[0])
    c.state.insert(c.state.end(), s.begin(), s.end());
  return c;
}

void Cart3DSolver::restore_checkpoint(const resil::Checkpoint& c) {
  if (c.solver != "cart3d")
    throw std::runtime_error("checkpoint solver mismatch: got '" + c.solver +
                             "', expected 'cart3d'");
  if (c.state_stride != 5 || c.state.size() != state_[0].size() * 5)
    throw std::runtime_error("checkpoint state size mismatch for cart3d grid");
  auto& u = state_[0];
  for (std::size_t i = 0; i < u.size(); ++i)
    for (std::size_t k = 0; k < 5; ++k) u[i][k] = c.state[i * 5 + k];
  state_changed(0);
}

resil::GuardedSolveResult Cart3DSolver::solve_guarded(
    int max_cycles, real_t orders, const resil::GuardedSolveOptions& options) {
  return driver_.solve_guarded(*this, max_cycles, orders, options);
}

/// The RK smoother has no relaxation knob; backoff acts on CFL alone.
void Cart3DSolver::apply_backoff(const resil::GuardOptions& g) {
  opt_.cfl *= g.cfl_backoff;
}

void Cart3DSolver::telemetry_forces(double& cl, double& cd) const {
  const Forces f = integrate_forces();
  cl = double(f.cl);
  cd = double(f.cd);
}

std::vector<real_t> Cart3DSolver::solve(int max_cycles, real_t orders) {
  return driver_.solve(*this, max_cycles, orders);
}

Forces Cart3DSolver::integrate_forces() const {
  const CartMesh& m = hierarchy_.levels[0];
  Forces out;
  const real_t pinf = freestream_.p;
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    const cartesian::CartCell& c = m.cells[i];
    if (!c.cut) continue;
    const Prim w = euler::to_primitive(state_[0][i]);
    out.force += (w.p - pinf) * c.wall_area;
  }
  // Coefficients normalized by freestream dynamic pressure (unit reference
  // area; the examples report raw coefficients for trend comparisons).
  const real_t q = 0.5 * freestream_.rho * dot(freestream_.vel, freestream_.vel);
  if (q > 0) {
    const Vec3 drag_dir = normalized(freestream_.vel);
    out.cd = dot(out.force, drag_dir) / q;
    out.cl = (out.force.z - dot(out.force, drag_dir) * drag_dir.z) / q;
  }
  return out;
}

std::vector<LevelWork> Cart3DSolver::level_work() const {
  const std::vector<index_t> visits =
      core::cycle_visits(int(hierarchy_.levels.size()), opt_.cycle);

  std::vector<LevelWork> w;
  for (std::size_t l = 0; l < hierarchy_.levels.size(); ++l) {
    LevelWork lw;
    lw.cells = hierarchy_.levels[l].num_cells();
    lw.faces = index_t(hierarchy_.levels[l].faces.size());
    lw.visits_per_cycle = visits[l];
    w.push_back(lw);
  }
  return w;
}

}  // namespace columbia::cart3d
