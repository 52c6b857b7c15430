// Automated aero-performance database generation (paper Sec. IV).
//
// The paper's parametric studies sweep Configuration-Space (control surface
// deflections) x Wind-Space (Mach, angle-of-attack, sideslip). Job control
// is hierarchical: geometry instances sit at the top with wind points
// below, so surface triangulation and mesh generation are amortized over
// the hundreds of wind-space runs on each geometry instance; independent
// cases run simultaneously, as many as memory permits.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "cart3d/solver.hpp"
#include "cartesian/cart_mesh.hpp"
#include "geom/components.hpp"
#include "resil/guard.hpp"
#include "support/types.hpp"

namespace columbia::driver {

struct WindPoint {
  real_t mach;
  real_t alpha_deg;
  real_t beta_deg;
};

/// How a case finished. A multi-day sweep must survive individual bad
/// cases: a crash or divergence is retried, then re-run in a heavily
/// dissipative degraded configuration, and only then recorded as failed —
/// the sweep always completes with a per-case verdict.
enum class CaseStatus { Ok, Recovered, Degraded, Failed };
const char* case_status_name(CaseStatus s);

struct CaseResult {
  real_t deflection_rad;
  WindPoint wind;
  real_t cl = 0, cd = 0;
  real_t residual_drop = 0;  // final/initial residual
  int cycles = 0;
  /// The solve reached its target: residual_drop <= 10^-convergence_orders.
  /// A case that ran into max_cycles keeps status Ok (the guard outcome)
  /// but is not converged; a Failed case never is.
  bool converged = false;
  CaseStatus status = CaseStatus::Ok;
  int attempts = 1;          // solver runs spent on this case
  bool from_manifest = false;  // reloaded from a previous sweep's manifest
};

struct DatabaseSpec {
  /// Configuration space: elevon deflections (radians).
  std::vector<real_t> deflections{0.0};
  /// Wind space axes (full tensor product is run).
  std::vector<real_t> machs{0.8};
  std::vector<real_t> alphas_deg{0.0};
  std::vector<real_t> betas_deg{0.0};

  /// Geometry factory per deflection; defaults to the SSLV assembly.
  std::function<geom::TriSurface(real_t)> geometry =
      [](real_t d) { return geom::make_sslv(d, 1); };
  geom::Aabb domain;  // defaults to geometry bounds padded 4x if invalid

  cartesian::CartMeshOptions mesh_options;
  cart3d::SolverOptions solver_options;
  int max_cycles = 30;
  real_t convergence_orders = 2;
  /// Cases run simultaneously (paper: "as many cases ... as memory
  /// permits"); maps to worker threads here, and is also the sweep's
  /// thread budget. Each case runs on its own pool: one thread while cases
  /// are queued, then the cores of finished workers are lent to the cases
  /// still running (see DatabaseFill::run).
  int simultaneous_cases = 4;

  // --- Resilience ----------------------------------------------------------
  /// Guard settings for each case's solve (divergence rollback + backoff).
  resil::GuardOptions guard;
  /// Extra full-configuration re-runs after a crashed or diverged case.
  int case_retries = 1;
  /// After the retry budget, re-run once on a single grid, first order,
  /// at half CFL and record the case as Degraded instead of Failed.
  bool allow_degraded = true;
  /// Sweep manifest file; empty disables durable resume. Cases found in
  /// the manifest are skipped and their recorded results reused, so a
  /// killed sweep restarted with the same spec continues where it died.
  std::string manifest_path;
};

struct DatabaseStats {
  int meshes_generated = 0;
  int cases_run = 0;
  int cases_recovered = 0;  // finished after in-solve rollback or re-run
  int cases_degraded = 0;   // finished only in the degraded configuration
  int cases_failed = 0;     // exhausted every recovery path
  int cases_unconverged = 0;  // finished, but short of the residual target
  int cases_skipped = 0;    // reloaded from the sweep manifest
  double mesh_gen_seconds = 0;
  double solve_seconds = 0;
  double total_cells_meshed = 0;

  double cells_per_minute() const {
    return mesh_gen_seconds > 0 ? total_cells_meshed / mesh_gen_seconds * 60
                                : 0;
  }
};

class DatabaseFill {
 public:
  explicit DatabaseFill(DatabaseSpec spec);

  /// Runs the whole database: one mesh per geometry instance, all wind
  /// points on that mesh, `simultaneous_cases` cases in flight at a time.
  /// Results are ordered by (deflection, mach, alpha, beta).
  ///
  /// Every case runs on its own smp::ThreadPool, bound to its worker
  /// thread (smp::ScopedPool). While cases remain queued each pool has one
  /// thread. Once the queue is empty a worker that finishes retires, and
  /// at every cycle boundary each running case resizes its pool to
  /// simultaneous_cases / in-flight threads, the remainder going to the
  /// lowest case indices. The solvers are bit-identical across pool
  /// widths, so results do not depend on the lending.
  std::vector<CaseResult> run();

  const DatabaseStats& stats() const { return stats_; }

  index_t num_cases() const {
    return index_t(spec_.deflections.size() * spec_.machs.size() *
                   spec_.alphas_deg.size() * spec_.betas_deg.size());
  }

 private:
  DatabaseSpec spec_;
  DatabaseStats stats_;
};

}  // namespace columbia::driver
