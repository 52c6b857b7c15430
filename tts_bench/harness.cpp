// Time-to-solution harness: drives the solvers through their public entry
// points and prints one JSON object per invocation on stdout. run.py owns
// seeds, repetition, answer checks and aggregation; this program only runs
// the operation it is given and reports what it measured.
//
//   tts_harness wing   --mach M --alpha A [--trace 0|1] [sizes...]
//   tts_harness sweep  --machs M1,M2 --alphas A1,A2,A3 [--trace 0|1] [...]
//   tts_harness layers [--small 1]
//   tts_harness provenance
//   tts_harness spawn --out FILE -- PROGRAM [ARGS...]
//
// `wing` and `sweep` call only the product entry points (Nsu3dSolver::solve,
// DatabaseFill::run). --trace 1 turns the span recorder on; the sweep then
// reads its per-case spans back for the worker efficiency.
// `layers` times single calls into each layer's public functions.
// `spawn` runs PROGRAM and writes its wall time, exit code and peak RSS
// (its own and that of every descendant it reaped) to FILE. The launch goes
// through this small process because a child forked from a large one
// (a Python interpreter) inherits that parent's resident set as its
// starting high-water mark.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cart3d/solver.hpp"
#include "cartesian/cart_mesh.hpp"
#include "core/exchange_plan.hpp"
#include "driver/database.hpp"
#include "geom/components.hpp"
#include "mesh/builders.hpp"
#include "nsu3d/partitioned.hpp"
#include "nsu3d/solver.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "resil/crc32.hpp"
#include "smp/pool.hpp"
#include "smp/process_group.hpp"
#include "smp/shm_transport.hpp"
#include "support/build_info.hpp"
#include "support/timer.hpp"

#ifndef TTS_CXX_FLAGS
#define TTS_CXX_FLAGS ""
#endif
#ifndef TTS_SANITIZE
#define TTS_SANITIZE ""
#endif

using namespace columbia;

namespace {

// --- Command line ------------------------------------------------------------

struct Args {
  std::map<std::string, std::string> kv;

  double num(const char* key, double fallback) const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : std::atof(it->second.c_str());
  }
  int integer(const char* key, int fallback) const {
    return int(num(key, fallback));
  }
  std::vector<double> list(const char* key) const {
    std::vector<double> out;
    const auto it = kv.find(key);
    if (it == kv.end()) return out;
    const std::string& s = it->second;
    std::size_t pos = 0;
    while (pos <= s.size()) {
      const std::size_t comma = std::min(s.find(',', pos), s.size());
      if (comma > pos) out.push_back(std::atof(s.substr(pos, comma - pos).c_str()));
      pos = comma + 1;
    }
    return out;
  }
};

// --- JSON output -------------------------------------------------------------

/// One flat JSON object on one line; non-finite numbers become null (the
/// answer check rejects them).
class Line {
 public:
  Line() { w_.begin_object(); }
  template <class T>
  Line& kv(const std::string& key, const T& v) {
    w_.kv(key, v);
    return *this;
  }
  obs::JsonWriter& writer() { return w_; }
  std::string text() {
    w_.end_object();
    return os_.str();
  }

 private:
  std::ostringstream os_;
  obs::JsonWriter w_{os_};
};

std::string provenance_json() {
  const BuildInfo& b = build_info();
  return Line()
      .kv("git_sha", b.git_sha)
      .kv("build_type", b.build_type)
      .kv("cxx_flags", TTS_CXX_FLAGS)
      .kv("sanitizer", TTS_SANITIZE)
      .kv("obs_compiled", b.obs_compiled)
      .kv("nproc", int(hardware_threads()))
      .text();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = std::size_t(std::ceil(q * double(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

bool all_finite(const std::vector<real_t>& h) {
  for (const real_t r : h)
    if (!std::isfinite(double(r))) return false;
  return !h.empty();
}

double orders_of(const std::vector<real_t>& h) {
  if (h.size() < 2 || !(h.front() > 0) || !(h.back() > 0)) return 0;
  return -std::log10(double(h.back()) / double(h.front()));
}

// --- Workload definitions ----------------------------------------------------

mesh::WingMeshSpec wing_spec(const Args& a) {
  mesh::WingMeshSpec spec;
  spec.n_wrap = a.integer("--n-wrap", 96);
  spec.n_span = a.integer("--n-span", 12);
  spec.n_normal = a.integer("--n-normal", 24);
  spec.wall_spacing = 1e-4;
  return spec;
}

nsu3d::Nsu3dOptions wing_options(const Args& a) {
  nsu3d::Nsu3dOptions opt;
  opt.mg_levels = a.integer("--mg-levels", 4);
  opt.cycle = nsu3d::CycleType::W;
  opt.smoother = nsu3d::SmootherKind::LineImplicit;
  return opt;
}

euler::FlowConditions wing_flow(const Args& a) {
  euler::FlowConditions fc;
  fc.mach = a.num("--mach", 0.75);
  fc.alpha_deg = a.num("--alpha", 0.0);
  fc.reynolds = 3.0e6;
  return fc;
}

geom::TriSurface sphere_surface() {
  return geom::make_sphere({0, 0, 0}, 0.5, 24, 48);
}

geom::Aabb sphere_domain() {
  geom::Aabb d;
  d.expand({-2, -2, -2});
  d.expand({2, 2, 2});
  return d;
}

cartesian::CartMeshOptions sphere_mesh_options(const Args& a) {
  cartesian::CartMeshOptions o;
  o.base_n = a.integer("--base-n", 8);
  o.max_level = a.integer("--max-level", 2);
  return o;
}

cart3d::SolverOptions sphere_solver_options() {
  cart3d::SolverOptions o;
  o.mg_levels = 3;
  o.cfl = 1.2;
  return o;
}

// --- wing: the NSU3D RANS solve to a residual target -------------------------

/// Pool width of wing_rans and of the nsu3d layer probes.
constexpr int kWingThreads = 4;

int op_wing(const Args& a) {
  const bool traced = a.integer("--trace", 0) != 0;
  const int max_cycles = a.integer("--max-cycles", 300);
  const double orders = a.num("--orders", 3.0);
  smp::set_global_threads(kWingThreads);
  if (traced) obs::set_enabled(true);

  WallTimer total;
  const mesh::UnstructuredMesh m = mesh::make_wing_mesh(wing_spec(a));
  nsu3d::Nsu3dSolver solver(m, wing_flow(a), wing_options(a));
  const double setup_s = total.seconds();

  const std::vector<real_t> history = solver.solve(max_cycles, real_t(orders));
  const nsu3d::Forces f = solver.integrate_forces();
  const double tts = total.seconds();

  Line j;
  j.kv("setup_s", setup_s)
      .kv("tts_s", tts)
      .kv("cycles", int(history.size()) - 1)
      .kv("orders", orders_of(history))
      .kv("history_finite", all_finite(history))
      .kv("cl", double(f.cl))
      .kv("cd", double(f.cd));
  std::printf("%s\n", j.text().c_str());
  return 0;
}

// --- sweep: a Cart3D cut-cell database fill ---------------------------------

int op_sweep(const Args& a) {
  const bool traced = a.integer("--trace", 0) != 0;
  // Parallelism is across cases: every case runs the serial pool path.
  smp::set_global_threads(1);
  if (traced) {
    obs::set_enabled(true);
    obs::reset_trace();
  }
  driver::DatabaseSpec spec;
  spec.machs.clear();
  spec.alphas_deg.clear();
  for (const double m : a.list("--machs")) spec.machs.push_back(real_t(m));
  for (const double al : a.list("--alphas"))
    spec.alphas_deg.push_back(real_t(al));
  if (spec.machs.empty() || spec.alphas_deg.empty()) {
    std::fprintf(stderr, "sweep: --machs and --alphas are required\n");
    return 2;
  }
  spec.geometry = [](real_t) { return sphere_surface(); };
  spec.domain = sphere_domain();
  spec.mesh_options = sphere_mesh_options(a);
  spec.solver_options = sphere_solver_options();
  spec.max_cycles = a.integer("--max-cycles", 300);
  spec.convergence_orders = real_t(a.num("--orders", 4.0));
  spec.simultaneous_cases = 4;

  WallTimer total;
  driver::DatabaseFill fill(spec);
  const std::vector<driver::CaseResult> results = fill.run();
  const double tts = total.seconds();
  const driver::DatabaseStats& st = fill.stats();

  Line j;
  j.kv("tts_s", tts).kv("mesh_s", st.mesh_gen_seconds);
  obs::JsonWriter& w = j.writer();
  w.key("cases").begin_array();
  for (const driver::CaseResult& r : results)
    w.begin_object()
        .kv("cl", double(r.cl))
        .kv("cd", double(r.cd))
        .kv("residual_drop", double(r.residual_drop))
        .kv("cycles", r.cycles)
        .kv("status", driver::case_status_name(r.status))
        .end_object();
  w.end_array();
  if (traced) {
    // Case wall times from the driver's existing per-case spans, the only
    // spans with a "case" argument. Events are matched by nesting per
    // thread, not by name: the solvers' own span names are strings owned
    // by the (now destroyed) solvers, so reading them here would read
    // freed memory.
    std::map<std::uint32_t, std::vector<std::pair<std::uint64_t, bool>>> open;
    double case_s = 0;
    for (const obs::TraceEvent& e : obs::trace_snapshot()) {
      auto& stack = open[e.tid];
      if (e.phase == 'B') {
        stack.emplace_back(e.ts_ns, e.arg_or("case", -1) >= 0);
      } else if (!stack.empty()) {
        if (stack.back().second)
          case_s += double(e.ts_ns - stack.back().first) * 1e-9;
        stack.pop_back();
      }
    }
    const int workers =
        std::min<int>(spec.simultaneous_cases, int(results.size()));
    j.kv("worker_efficiency", case_s / (workers * st.solve_seconds));
  }
  std::printf("%s\n", j.text().c_str());
  return 0;
}

// --- layers: single calls into each layer's public functions ----------------

template <class Fn>
std::vector<double> time_reps(int reps, Fn&& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    WallTimer t;
    fn();
    s.push_back(t.seconds());
  }
  return s;
}

int op_layers(const Args& a) {
  const bool small = a.integer("--small", 0) != 0;
  const int width = kWingThreads;
  Line j;

  // smp: fork/supervise/reap of a 2-rank shm group with an empty body.
  // Runs first, before any solver work has started pool threads.
  {
    smp::ProcessGroupOptions go;
    go.ranks = 2;
    go.backend = smp::GroupBackend::Shm;
    bool ok = true;
    const std::vector<double> s = time_reps(small ? 2 : 5, [&] {
      ok = smp::ProcessGroup::run(go, [](int, core::Transport&) { return 0; })
               .ok && ok;
    });
    j.kv("smp.group_launch_s", median(s)).kv("smp.group_launch_ok", ok);
  }

  // mesh / graph / nsu3d on the wing_rans mesh.
  {
    Args wa = a;
    if (small)
      wa.kv = {{"--n-wrap", "24"}, {"--n-span", "4"}, {"--n-normal", "10"},
               {"--mg-levels", "3"}};
    smp::set_global_threads(width);
    std::unique_ptr<mesh::UnstructuredMesh> m;
    const std::vector<double> mesh_s = time_reps(small ? 1 : 3, [&] {
      m = std::make_unique<mesh::UnstructuredMesh>(
          mesh::make_wing_mesh(wing_spec(wa)));
    });
    std::unique_ptr<nsu3d::Nsu3dSolver> solver;
    const std::vector<double> construct_s = time_reps(small ? 1 : 3, [&] {
      solver = std::make_unique<nsu3d::Nsu3dSolver>(*m, wing_flow(wa),
                                                    wing_options(wa));
    });
    // Cycles from freestream with the recorder on, for pool utilization.
    obs::set_enabled(true);
    smp::ThreadPool::global().reset_stats();
    WallTimer wall;
    const std::vector<double> cyc =
        time_reps(small ? 3 : 16, [&] { solver->run_cycle(); });
    const double cycles_wall = wall.seconds();
    double busy_ns = 0;
    for (const auto& s : smp::ThreadPool::global().thread_stats())
      busy_ns += double(s.busy_ns);
    obs::set_enabled(false);

    const std::vector<nsu3d::LevelWork> work = solver->level_work();
    double edge_visits = 0;
    for (const auto& w : work)
      edge_visits += double(w.edges) * double(w.visits_per_cycle);

    std::vector<std::vector<nsu3d::State>> u(work.size()), r(work.size());
    for (std::size_t l = 0; l < work.size(); ++l) {
      const auto s = solver->solution(int(l));
      u[l].assign(s.begin(), s.end());
    }
    const int reps = small ? 3 : 15;
    auto residual0 = [&] {
      return median(time_reps(
          reps, [&] { solver->compute_residual(0, u[0], r[0], true); }));
    };
    const double res4 = residual0();
    double coarse_s = 0;
    for (std::size_t l = 1; l < work.size(); ++l)
      coarse_s += double(work[l].visits_per_cycle) *
                  median(time_reps(reps, [&] {
                    solver->compute_residual(int(l), u[l], r[l], false);
                  }));
    smp::set_global_threads(1);
    const double res1 = residual0();
    smp::set_global_threads(width);

    const double cyc_p50 = percentile(cyc, 0.5) * 1e3;
    j.kv("mesh.wing_build_s", median(mesh_s))
        .kv("nsu3d.construct_s", median(construct_s))
        .kv("nsu3d.cycle_ms.p50", cyc_p50)
        .kv("nsu3d.cycle_ms.p90", percentile(cyc, 0.9) * 1e3)
        .kv("nsu3d.residual_l0_ms", res4 * 1e3)
        .kv("nsu3d.residual_l0_ms_1t", res1 * 1e3)
        .kv("nsu3d.residual_thread_speedup", res1 / res4)
        .kv("nsu3d.residual_coarse_ms", coarse_s * 1e3)
        .kv("nsu3d.edge_visits_per_cycle", edge_visits)
        .kv("nsu3d.ns_per_edge_visit", cyc_p50 * 1e6 / edge_visits)
        .kv("smp.pool_busy_frac", busy_ns * 1e-9 / (width * cycles_wall));
  }

  // cartesian / cart3d on the sphere_sweep mesh, serial pool as in the sweep.
  {
    smp::set_global_threads(1);
    const geom::TriSurface surf = sphere_surface();
    std::unique_ptr<cartesian::CartMesh> mesh;
    const std::vector<double> mesh_s = time_reps(small ? 1 : 5, [&] {
      mesh = std::make_unique<cartesian::CartMesh>(cartesian::build_cart_mesh(
          surf, sphere_domain(), sphere_mesh_options(Args{})));
    });
    euler::FlowConditions fc;
    fc.mach = 0.5;
    fc.alpha_deg = 2.0;
    std::unique_ptr<cart3d::Cart3DSolver> solver;
    const std::vector<double> construct_s = time_reps(small ? 1 : 5, [&] {
      solver = std::make_unique<cart3d::Cart3DSolver>(*mesh, fc,
                                                      sphere_solver_options());
    });
    const std::vector<double> cyc =
        time_reps(small ? 3 : 30, [&] { solver->run_cycle(); });
    std::vector<euler::Cons> u = solver->solution(), r;
    const std::vector<double> res = time_reps(
        small ? 3 : 50, [&] { solver->compute_residual(0, u, r, true); });
    const double faces = double(solver->level_work()[0].faces);
    j.kv("cartesian.mesh_build_s", median(mesh_s))
        .kv("cartesian.cells", double(mesh->num_cells()))
        .kv("cartesian.cut_cells", double(mesh->num_cut_cells()))
        .kv("cart3d.construct_s", median(construct_s))
        .kv("cart3d.cycle_ms.p50", percentile(cyc, 0.5) * 1e3)
        .kv("cart3d.residual_l0_us", median(res) * 1e6)
        .kv("cart3d.ns_per_face", median(res) * 1e9 / faces);
  }

  // core: fine-level halo of the wing_shm_2rank wing (8 contiguous node
  // blocks, densities), t2t plan over a loopback shm endpoint.
  {
    smp::set_global_threads(width);
    mesh::WingMeshSpec spec;
    spec.n_wrap = 24;
    spec.n_span = 4;
    spec.n_normal = 10;
    const mesh::UnstructuredMesh m = mesh::make_wing_mesh(spec);
    nsu3d::Nsu3dOptions opt = wing_options(Args{{{"--mg-levels", "3"}}});
    const nsu3d::Nsu3dSolver solver(m, wing_flow(Args{}), opt);
    constexpr index_t kParts = 8;
    const index_t nn = solver.level(0).num_nodes;
    std::vector<index_t> part(static_cast<std::size_t>(nn));
    for (index_t i = 0; i < nn; ++i) part[std::size_t(i)] = i * kParts / nn;

    smp::ShmGroup group(1);
    const std::unique_ptr<core::Transport> ep = group.endpoint(0);
    core::ExchangePlanOptions xo;
    xo.strategy = core::ExchangeStrategy::ThreadToThread;
    xo.transport = ep.get();
    xo.wire.deadline_ms = 200;
    xo.wire.loopback_self = true;
    core::ExchangePlan plan(nsu3d::halo_requests(solver.level(0), part, kParts),
                            xo);
    core::PartitionData data(static_cast<std::size_t>(kParts),
                             std::vector<real_t>(static_cast<std::size_t>(nn)));
    const auto u = solver.solution();
    for (auto& d : data)
      for (std::size_t i = 0; i < d.size(); ++i) d[i] = u[i][0];
    bool delivered = true;
    const auto check = [&](const core::PartitionData& got) {
      for (std::size_t p = 0; p < got.size(); ++p) {
        const auto& reqs = plan.requests()[p];
        for (std::size_t k = 0; k < reqs.size(); ++k)
          delivered = delivered &&
                      got[p][k] == data[std::size_t(reqs[k].from_partition)]
                                       [std::size_t(reqs[k].item)];
      }
    };
    for (int w = 0; w < 5; ++w) check(plan.exchange(data));
    const core::ExchangeStats before = plan.stats();
    const int n = small ? 20 : 400;
    const std::vector<double> s =
        time_reps(n, [&] { check(plan.exchange(data)); });
    const core::ExchangeStats& after = plan.stats();
    j.kv("core.exchange_us.p50", median(s) * 1e6)
        .kv("core.exchange_msgs", double(after.messages - before.messages) / n)
        .kv("core.exchange_bytes", double(after.bytes - before.bytes) / n)
        .kv("core.retransmits", double(after.retransmits))
        .kv("core.exchange_delivered", delivered);
  }

  // resil: frame checksum throughput on an exchange-sized (1 MiB) buffer.
  {
    std::vector<unsigned char> buf(std::size_t(1) << 20);
    for (std::size_t i = 0; i < buf.size(); ++i)
      buf[i] = (unsigned char)(i * 2654435761u >> 13);
    std::uint32_t sink = 0;
    const std::vector<double> s = time_reps(small ? 2 : 20, [&] {
      sink ^= resil::crc32(buf.data(), buf.size());
    });
    j.kv("resil.crc32_mb_per_s", double(buf.size()) / 1e6 / median(s))
        .kv("resil.crc32_sink", double(sink));  // keeps the loop live
  }

  std::printf("%s\n", j.text().c_str());
  return 0;
}

// --- spawn: wall time and peak RSS of a child process tree ------------------

int op_spawn(int argc, char** argv) {
  std::string out;
  int first = -1;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--") == 0) {
      first = i + 1;
      break;
    }
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
  }
  if (out.empty() || first < 0 || first >= argc) {
    std::fprintf(stderr, "usage: tts_harness spawn --out FILE -- PROGRAM...\n");
    return 2;
  }
  WallTimer t;
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("tts_harness spawn: fork");
    return 1;
  }
  if (pid == 0) {
    execvp(argv[first], argv + first);
    std::perror("tts_harness spawn: exec");
    _exit(127);
  }
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) < 0) {
    std::perror("tts_harness spawn: wait4");
    return 1;
  }
  const double wall = t.seconds();
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  Line j;
  // ru_maxrss of a reaped child covers its own reaped descendants too.
  j.kv("wall_s", wall)
      .kv("exit_code", code)
      .kv("peak_rss_mb", double(ru.ru_maxrss) / 1024);
  FILE* f = std::fopen(out.c_str(), "w");
  if (!f) {
    std::perror("tts_harness spawn: result file");
    return 1;
  }
  std::fprintf(f, "%s\n", j.text().c_str());
  std::fclose(f);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: tts_harness wing|sweep|layers|provenance|spawn ...\n");
    return 2;
  }
  if (std::strcmp(argv[1], "spawn") == 0) return op_spawn(argc, argv);
  if (std::strcmp(argv[1], "provenance") == 0) {
    std::printf("%s\n", provenance_json().c_str());
    return 0;
  }
  Args a;
  for (int i = 2; i + 1 < argc; i += 2) a.kv[argv[i]] = argv[i + 1];
  const std::string op = argv[1];
  try {
    if (op == "wing") return op_wing(a);
    if (op == "sweep") return op_sweep(a);
    if (op == "layers") return op_layers(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tts_harness %s: %s\n", op.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "tts_harness: unknown operation '%s'\n", op.c_str());
  return 2;
}
