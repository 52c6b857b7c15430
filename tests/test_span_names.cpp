// Span-name lifetime: recorded trace events keep raw name pointers, so a
// name built at run time must outlive the object that built it. A solver's
// multigrid spans ("nsu3d.cycle", "nsu3d.level", ...) are interned through
// obs::intern; this suite destroys the solver and only then reads and
// exports its trace. Labelled asan: AddressSanitizer turns a dangling name
// into a heap-use-after-free report instead of silently reading garbage.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "mesh/builders.hpp"
#include "nsu3d/solver.hpp"
#include "obs/obs.hpp"
#include "smp/pool.hpp"

namespace columbia {
namespace {

struct TraceGuard {
  TraceGuard() {
    obs::reset_trace();
    obs::set_enabled(true);
  }
  ~TraceGuard() {
    obs::set_enabled(false);
    obs::reset_trace();
  }
};

TEST(SpanNames, InternedNamesAreSharedAndOutliveTheirSource) {
  const char* a;
  {
    std::string built = std::string("span_names") + ".probe";
    a = obs::intern(built);
    built.assign(built.size(), 'x');  // the source changes, the copy does not
  }
  EXPECT_STREQ(a, "span_names.probe");
  EXPECT_EQ(obs::intern("span_names.probe"), a);
  EXPECT_NE(obs::intern("span_names.other"), a);
}

TEST(SpanNames, TraceOfDestroyedSolverExportsItsSpans) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  TraceGuard guard;
  smp::set_global_threads(1);
  {
    mesh::WingMeshSpec spec;
    spec.n_wrap = 24;
    spec.n_span = 3;
    spec.n_normal = 10;
    spec.wall_spacing = 1e-4;
    const mesh::UnstructuredMesh m = mesh::make_wing_mesh(spec);
    euler::FlowConditions fc;
    fc.mach = 0.75;
    fc.reynolds = 3e6;
    nsu3d::Nsu3dOptions o;
    o.mg_levels = 3;
    nsu3d::Nsu3dSolver solver(m, fc, o);
    solver.solve(2, 10);
  }  // the solver, and every string it owned, is gone

  int cycles = 0, levels = 0;
  for (const obs::TraceEvent& e : obs::trace_snapshot()) {
    if (e.phase != 'B') continue;
    const std::string name = e.name;
    cycles += name == "nsu3d.cycle";
    levels += name == "nsu3d.level";
  }
  EXPECT_EQ(cycles, 2);
  EXPECT_GT(levels, cycles);
  std::ostringstream os;
  obs::write_chrome_trace(os);
  EXPECT_NE(os.str().find("\"nsu3d.solve\""), std::string::npos);
  EXPECT_NE(os.str().find("\"nsu3d.level\""), std::string::npos);
}

}  // namespace
}  // namespace columbia
