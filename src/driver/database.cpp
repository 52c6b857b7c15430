#include "driver/database.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/obs.hpp"
#include "resil/faults.hpp"
#include "resil/manifest.hpp"
#include "smp/pool.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace columbia::driver {

namespace {

CaseStatus case_status_from_name(const std::string& s) {
  if (s == "recovered") return CaseStatus::Recovered;
  if (s == "degraded") return CaseStatus::Degraded;
  if (s == "failed") return CaseStatus::Failed;
  return CaseStatus::Ok;
}

}  // namespace

const char* case_status_name(CaseStatus s) {
  switch (s) {
    case CaseStatus::Ok: return "ok";
    case CaseStatus::Recovered: return "recovered";
    case CaseStatus::Degraded: return "degraded";
    case CaseStatus::Failed: return "failed";
  }
  return "?";
}

DatabaseFill::DatabaseFill(DatabaseSpec spec) : spec_(std::move(spec)) {
  COLUMBIA_REQUIRE(!spec_.deflections.empty());
  COLUMBIA_REQUIRE(!spec_.machs.empty());
  COLUMBIA_REQUIRE(!spec_.alphas_deg.empty());
  COLUMBIA_REQUIRE(!spec_.betas_deg.empty());
  COLUMBIA_REQUIRE(spec_.simultaneous_cases >= 1);
  COLUMBIA_REQUIRE(spec_.case_retries >= 0);
}

std::vector<CaseResult> DatabaseFill::run() {
  std::vector<CaseResult> results;
  results.reserve(std::size_t(num_cases()));

  std::unique_ptr<resil::SweepManifest> manifest;
  if (!spec_.manifest_path.empty())
    manifest = std::make_unique<resil::SweepManifest>(spec_.manifest_path);

  const std::size_t winds_per_defl =
      spec_.machs.size() * spec_.alphas_deg.size() * spec_.betas_deg.size();

  for (std::size_t di = 0; di < spec_.deflections.size(); ++di) {
    const real_t defl = spec_.deflections[di];
    // Top of the job hierarchy: one geometry instance. Surface preparation
    // and mesh generation are paid once per instance and amortized over
    // every wind point below it (paper Sec. IV).
    WallTimer mesh_timer;
    obs::SpanGuard mesh_span("driver.mesh_gen");
    const geom::TriSurface surface = spec_.geometry(defl);
    geom::Aabb domain = spec_.domain;
    if (!domain.valid()) {
      domain = surface.bounds();
      const geom::Vec3 pad = 1.5 * (domain.hi - domain.lo);
      domain.lo -= pad;
      domain.hi += pad;
    }
    const cartesian::CartMesh mesh =
        cartesian::build_cart_mesh(surface, domain, spec_.mesh_options);
    mesh_span.close();
    stats_.mesh_gen_seconds += mesh_timer.seconds();
    stats_.meshes_generated += 1;
    stats_.total_cells_meshed += double(mesh.num_cells());
    OBS_COUNT("driver.meshes", 1);
    OBS_COUNT("driver.cells_meshed", mesh.num_cells());

    // Wind-space sweep on this instance, simultaneous_cases at a time.
    std::vector<WindPoint> winds;
    for (real_t m : spec_.machs)
      for (real_t a : spec_.alphas_deg)
        for (real_t b : spec_.betas_deg) winds.push_back({m, a, b});

    std::vector<CaseResult> batch(winds.size());
    WallTimer solve_timer;
    // Case queue and the in-flight set, in ascending case index (cases
    // are claimed in order, so appending keeps it sorted).
    const int budget = spec_.simultaneous_cases;
    std::mutex queue_mu;
    std::size_t next = 0;
    std::vector<std::size_t> in_flight;
    auto claim = [&] {
      std::lock_guard<std::mutex> lock(queue_mu);
      if (next >= winds.size()) return winds.size();
      in_flight.push_back(next);
      return next++;
    };
    auto release = [&](std::size_t k) {
      std::lock_guard<std::mutex> lock(queue_mu);
      in_flight.erase(std::find(in_flight.begin(), in_flight.end(), k));
    };
    // Pool width for case k: one thread while cases are queued, else an
    // equal share of the budget, the remainder to the lowest indices.
    auto lent_width = [&](std::size_t k) {
      std::lock_guard<std::mutex> lock(queue_mu);
      if (next < winds.size()) return 1;
      const int n = int(in_flight.size());
      const int rank = int(std::find(in_flight.begin(), in_flight.end(), k) -
                           in_flight.begin());
      return budget / n + (rank < budget % n ? 1 : 0);
    };

    // One guarded solver run on the worker's pool; throws when the
    // injector crashes the worker (FaultKind::CaseThrow) or the solver
    // rejects the configuration.
    auto solve_once = [&](std::size_t k, smp::ThreadPool& pool,
                          const WindPoint& wp,
                          const cart3d::SolverOptions& sopt,
                          std::uint64_t site) {
      resil::FaultInjector::global().maybe_throw(resil::FaultKind::CaseThrow,
                                                 site);
      euler::FlowConditions fc;
      fc.mach = wp.mach;
      fc.alpha_deg = wp.alpha_deg;
      fc.beta_deg = wp.beta_deg;
      cart3d::Cart3DSolver solver(mesh, fc, sopt);
      // Level 0 begins every cycle: the boundary where the case takes up
      // its current share of the budget. Resizing touches no solver state.
      solver.set_level_hooks(
          [&](int level) {
            if (level != 0) return;
            const int width = lent_width(k);
            if (width == pool.num_threads()) return;
            if (width > pool.num_threads()) OBS_COUNT("driver.pool_grows", 1);
            pool.resize(width);
          },
          {});
      resil::GuardedSolveOptions gopt;
      gopt.guard = spec_.guard;
      const resil::GuardedSolveResult gr = solver.solve_guarded(
          spec_.max_cycles, spec_.convergence_orders, gopt);
      return std::make_pair(gr, solver.integrate_forces());
    };

    auto fill_result = [](CaseResult& r, const resil::GuardedSolveResult& gr,
                          const cart3d::Forces& f) {
      const auto& hist = gr.history;
      r.cl = f.cl;
      r.cd = f.cd;
      r.cycles = int(hist.size()) - 1;
      r.residual_drop = hist.front() > 0 ? hist.back() / hist.front() : 0;
    };

    // Each worker runs its cases on its own pool, bound to the worker.
    auto worker = [&] {
      smp::ThreadPool pool(1);
      const smp::ScopedPool bind(pool);
      while (true) {
        const std::size_t k = claim();
        if (k >= winds.size()) break;
        OBS_SPAN("driver.case", "case", std::int64_t(k));
        const WindPoint& wp = winds[k];
        // Stable global case id: deflection-major, the same across re-runs
        // of the same spec, so manifest entries address the right case.
        const std::uint64_t id = di * winds_per_defl + k;

        CaseResult r;
        r.deflection_rad = defl;
        r.wind = wp;

        if (manifest) {
          if (const resil::ManifestEntry* e = manifest->find(id)) {
            r.status = case_status_from_name(e->status);
            r.cl = real_t(e->values[0]);
            r.cd = real_t(e->values[1]);
            r.residual_drop = real_t(e->values[2]);
            r.cycles = int(e->values[3]);
            r.attempts = int(e->values[4]);
            r.from_manifest = true;
            batch[k] = r;
            OBS_COUNT("resil.case.skipped", 1);
            release(k);
            continue;
          }
        }
        OBS_COUNT("driver.cases", 1);

        // Recovery ladder: full-configuration attempts (the guarded solve
        // already rolls back transient divergence internally), then one
        // degraded re-run, then Failed. A crashed worker never takes the
        // sweep down — the exception is contained to this case.
        CaseStatus status = CaseStatus::Failed;
        int attempts = 0;
        const int full_attempts = 1 + spec_.case_retries;
        for (int a = 0; a < full_attempts && status == CaseStatus::Failed;
             ++a) {
          ++attempts;
          try {
            const auto [gr, f] = solve_once(k, pool, wp,
                                            spec_.solver_options,
                                            id * 8 + std::uint64_t(a));
            if (gr.outcome != resil::SolveOutcome::Failed) {
              // A rollback inside the solve or a repeat attempt both count
              // as recovered: the case finished at full fidelity, but not
              // on the first clean try.
              status = (gr.outcome == resil::SolveOutcome::Recovered ||
                        a > 0)
                           ? CaseStatus::Recovered
                           : CaseStatus::Ok;
              fill_result(r, gr, f);
            } else {
              OBS_COUNT("resil.case.diverged", 1);
            }
          } catch (const std::exception&) {
            OBS_COUNT("resil.case.crashed", 1);
          }
        }
        if (status == CaseStatus::Failed && spec_.allow_degraded) {
          cart3d::SolverOptions degraded = spec_.solver_options;
          degraded.mg_levels = 1;
          degraded.second_order = false;
          degraded.cfl *= 0.5;
          ++attempts;
          try {
            const auto [gr, f] =
                solve_once(k, pool, wp, degraded, id * 8 + 7);
            if (gr.outcome != resil::SolveOutcome::Failed) {
              status = CaseStatus::Degraded;
              fill_result(r, gr, f);
            }
          } catch (const std::exception&) {
            OBS_COUNT("resil.case.crashed", 1);
          }
        }
        r.status = status;
        r.attempts = attempts;
        batch[k] = r;
        OBS_COUNT(status == CaseStatus::Ok          ? "resil.case.ok"
                  : status == CaseStatus::Recovered ? "resil.case.recovered"
                  : status == CaseStatus::Degraded  ? "resil.case.degraded"
                                                    : "resil.case.failed",
                  1);
        if (manifest)
          manifest->record({id,
                            case_status_name(status),
                            {double(r.cl), double(r.cd),
                             double(r.residual_drop), double(r.cycles),
                             double(r.attempts), double(defl)}});
        release(k);
      }
    };
    std::vector<std::thread> workers;
    const int nw = std::min<int>(budget, int(winds.size()));
    for (int t = 0; t < nw; ++t) workers.emplace_back(worker);
    for (auto& t : workers) t.join();
    stats_.solve_seconds += solve_timer.seconds();

    // Outcome accounting happens after the join — stats_ is not touched
    // from worker threads. A case capped at max_cycles is a finished
    // solve: it is reported unconverged, not retried or degraded.
    const real_t target_drop = std::pow(10.0, -spec_.convergence_orders);
    for (CaseResult& r : batch) {
      r.converged =
          r.status != CaseStatus::Failed && r.residual_drop <= target_drop;
      if (r.from_manifest) {
        stats_.cases_skipped += 1;
        continue;
      }
      stats_.cases_run += 1;
      switch (r.status) {
        case CaseStatus::Recovered: stats_.cases_recovered += 1; break;
        case CaseStatus::Degraded: stats_.cases_degraded += 1; break;
        case CaseStatus::Failed: stats_.cases_failed += 1; break;
        case CaseStatus::Ok: break;
      }
      if (r.status != CaseStatus::Failed && !r.converged) {
        stats_.cases_unconverged += 1;
        OBS_COUNT("driver.cases_unconverged", 1);
      }
    }

    results.insert(results.end(), batch.begin(), batch.end());
  }
  return results;
}

}  // namespace columbia::driver
