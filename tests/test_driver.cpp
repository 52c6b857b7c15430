#include <gtest/gtest.h>

#include <cmath>

#include "driver/variable_fidelity.hpp"

namespace columbia::driver {
namespace {

DatabaseSpec tiny_db() {
  DatabaseSpec spec;
  spec.deflections = {0.0, 0.15};
  spec.machs = {0.6, 1.4};
  spec.alphas_deg = {0.0, 4.0};
  spec.betas_deg = {0.0};
  spec.geometry = [](real_t d) { return geom::make_sslv(d, 1); };
  spec.mesh_options.base_n = 6;
  spec.mesh_options.max_level = 1;
  spec.solver_options.flux = euler::FluxScheme::VanLeer;
  spec.solver_options.second_order = false;
  spec.solver_options.mg_levels = 1;
  spec.max_cycles = 6;
  spec.simultaneous_cases = 4;
  return spec;
}

TEST(Database, RunsFullTensorProduct) {
  DatabaseFill fill(tiny_db());
  EXPECT_EQ(fill.num_cases(), 8);
  const auto results = fill.run();
  ASSERT_EQ(results.size(), 8u);
  for (const auto& r : results) {
    EXPECT_TRUE(std::isfinite(r.cl));
    EXPECT_TRUE(std::isfinite(r.cd));
    EXPECT_GT(r.cycles, 0);
  }
}

TEST(Database, MeshGenerationAmortizedPerGeometry) {
  // One mesh per geometry instance, not per case (paper Sec. IV).
  DatabaseFill fill(tiny_db());
  fill.run();
  EXPECT_EQ(fill.stats().meshes_generated, 2);
  EXPECT_EQ(fill.stats().cases_run, 8);
  EXPECT_GT(fill.stats().cells_per_minute(), 0.0);
}

TEST(Database, ResultsOrderedByHierarchy) {
  DatabaseFill fill(tiny_db());
  const auto results = fill.run();
  // Deflection is the outer loop.
  EXPECT_DOUBLE_EQ(results[0].deflection_rad, 0.0);
  EXPECT_DOUBLE_EQ(results[4].deflection_rad, 0.15);
  // Wind points identical across instances.
  EXPECT_DOUBLE_EQ(results[0].wind.mach, results[4].wind.mach);
}

TEST(Database, DeflectionChangesForces) {
  // The config-space parameter must influence the answer: elevon
  // deflection changes the pitching force balance.
  DatabaseSpec spec = tiny_db();
  spec.machs = {1.4};
  spec.alphas_deg = {0.0};
  spec.max_cycles = 12;
  DatabaseFill fill(spec);
  const auto results = fill.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_NE(results[0].cl, results[1].cl);
}

TEST(Database, CappedCasesAreReportedUnconverged) {
  // Two cycles cannot drop the residual six orders: every case stops at
  // the cap. Its status stays the guard outcome (ok), it is not retried
  // or degraded, and it is reported unconverged.
  DatabaseSpec spec = tiny_db();
  spec.deflections = {0.0};
  spec.max_cycles = 2;
  spec.convergence_orders = 6;
  DatabaseFill fill(spec);
  const auto results = fill.run();
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    EXPECT_EQ(r.status, CaseStatus::Ok);
    EXPECT_EQ(r.attempts, 1);
    EXPECT_EQ(r.cycles, 2);
    EXPECT_GT(r.residual_drop, 1e-6);
    EXPECT_FALSE(r.converged);
  }
  EXPECT_EQ(fill.stats().cases_unconverged, 4);

  // At a target of 0.001 orders some cases get there in two cycles and
  // stop early; the verdict follows residual_drop case by case.
  spec.convergence_orders = 1e-3;
  DatabaseFill easy(spec);
  int unconverged = 0;
  for (const auto& r : easy.run()) {
    EXPECT_EQ(r.converged, r.residual_drop <= std::pow(10.0, -1e-3));
    unconverged += r.converged ? 0 : 1;
  }
  EXPECT_LT(unconverged, 4);
  EXPECT_EQ(easy.stats().cases_unconverged, unconverged);
}

TEST(Campaign, VariableFidelityEndToEnd) {
  CampaignSpec spec;
  spec.anchor_points = {{0.75, 0.0, 0.0}};
  spec.wing_mesh.n_wrap = 16;
  spec.wing_mesh.n_span = 2;
  spec.wing_mesh.n_normal = 8;
  spec.nsu3d_options.mg_levels = 2;
  spec.nsu3d_max_cycles = 10;
  spec.database = tiny_db();
  spec.database.deflections = {0.0};
  spec.database.machs = {0.8};
  spec.database.alphas_deg = {0.0};

  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.anchors.size(), 1u);
  EXPECT_LT(result.anchors[0].residual_drop, 1.0);  // residual decreased
  ASSERT_EQ(result.database.size(), 1u);
  EXPECT_EQ(result.database_stats.meshes_generated, 1);
}

}  // namespace
}  // namespace columbia::driver
