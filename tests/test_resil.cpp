// Resilience layer: checkpoint round-trips (bit-identical restart at 1 and
// 4 threads), deterministic fault injection, guarded solves, checksummed
// halo frames, and database sweep recovery/resume.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "cart3d/solver.hpp"
#include "core/exchange_plan.hpp"
#include "driver/database.hpp"
#include "mesh/builders.hpp"
#include "nsu3d/solver.hpp"
#include "resil/checkpoint.hpp"
#include "resil/crc32.hpp"
#include "resil/faults.hpp"
#include "resil/guard.hpp"
#include "resil/manifest.hpp"
#include "smp/pool.hpp"
#include "support/random.hpp"

namespace columbia {
namespace {

/// Restores the global pool to a single thread when a test exits.
struct PoolGuard {
  ~PoolGuard() { smp::set_global_threads(1); }
};

/// Arms the global injector for one test and always disarms on exit so no
/// fault spec leaks into later tests.
struct InjectorGuard {
  explicit InjectorGuard(const std::string& spec) {
    resil::FaultInjector::global().configure(resil::parse_fault_spec(spec));
  }
  ~InjectorGuard() { resil::FaultInjector::global().reset(); }
};

// --- CRC32 -----------------------------------------------------------------

TEST(Crc32, KnownAnswer) {
  // The IEEE 802.3 check value for the ASCII digits "123456789".
  const char digits[] = "123456789";
  EXPECT_EQ(resil::crc32(digits, 9), 0xCBF43926u);
}

TEST(Crc32, StreamingMatchesOneShot) {
  const char data[] = "resilience layer streaming checksum";
  const std::size_t n = sizeof(data) - 1;
  const std::uint32_t whole = resil::crc32(data, n);
  const std::uint32_t first = resil::crc32(data, 10);
  EXPECT_EQ(resil::crc32(data + 10, n - 10, first), whole);
}

TEST(Crc32, SlicedMatchesBytewiseOnRandomLengthsAndOffsets) {
  // The word-at-a-time path must agree with the reference byte loop for
  // every length (whole words plus any tail) and every misalignment of
  // the start, one-shot and streamed.
  Xoshiro256 rng(20051117);
  std::vector<unsigned char> buf(4096 + 16);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.below(256));
  EXPECT_EQ(resil::crc32_bytewise("123456789", 9), 0xCBF43926u);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t off = std::size_t(rng.below(16));
    const std::size_t n = std::size_t(rng.below(4096));
    const std::uint32_t seed = std::uint32_t(rng.below(1ull << 32));
    const unsigned char* p = buf.data() + off;
    ASSERT_EQ(resil::crc32(p, n, seed), resil::crc32_bytewise(p, n, seed))
        << "offset " << off << " length " << n;
    const std::size_t cut = n == 0 ? 0 : std::size_t(rng.below(n));
    ASSERT_EQ(resil::crc32(p + cut, n - cut, resil::crc32(p, cut)),
              resil::crc32_bytewise(p, n));
  }
}

// --- Fault spec parsing ----------------------------------------------------

TEST(FaultSpec, ParsesSeedRatesAndCaps) {
  const resil::FaultSpec s =
      resil::parse_fault_spec("seed=42,state_nan=0.25@1,halo_corrupt=0.1");
  EXPECT_EQ(s.seed, 42u);
  EXPECT_DOUBLE_EQ(s.rate[std::size_t(resil::FaultKind::StateNaN)], 0.25);
  EXPECT_EQ(s.max_count[std::size_t(resil::FaultKind::StateNaN)], 1u);
  EXPECT_DOUBLE_EQ(s.rate[std::size_t(resil::FaultKind::HaloCorrupt)], 0.1);
  EXPECT_EQ(s.max_count[std::size_t(resil::FaultKind::HaloCorrupt)],
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(s.any());
}

TEST(FaultSpec, RejectsMalformedInput) {
  EXPECT_THROW(resil::parse_fault_spec("seed"), std::invalid_argument);
  EXPECT_THROW(resil::parse_fault_spec("bogus_kind=0.5"),
               std::invalid_argument);
  EXPECT_THROW(resil::parse_fault_spec("state_nan=1.5"),
               std::invalid_argument);
  EXPECT_THROW(resil::parse_fault_spec("state_nan=abc"),
               std::invalid_argument);
}

// --- Injector determinism --------------------------------------------------

TEST(FaultInjector, DecisionsAreAPureFunctionOfSeedAndSite) {
  resil::FaultInjector a, b;
  const resil::FaultSpec spec = resil::parse_fault_spec("seed=7,state_nan=0.5");
  a.configure(spec);
  b.configure(spec);
  for (std::uint64_t site = 0; site < 200; ++site)
    EXPECT_EQ(a.should_inject(resil::FaultKind::StateNaN, site),
              b.should_inject(resil::FaultKind::StateNaN, site))
        << "site " << site;
  EXPECT_GT(a.injected(resil::FaultKind::StateNaN), 0u);
  EXPECT_LT(a.injected(resil::FaultKind::StateNaN), 200u);
}

TEST(FaultInjector, BudgetCapStopsInjections) {
  resil::FaultInjector inj;
  inj.configure(resil::parse_fault_spec("seed=1,case_throw=1@3"));
  int fired = 0;
  for (std::uint64_t site = 0; site < 50; ++site)
    if (inj.should_inject(resil::FaultKind::CaseThrow, site)) ++fired;
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(inj.injected(resil::FaultKind::CaseThrow), 3u);
}

TEST(FaultInjector, DisarmedInjectsNothing) {
  resil::FaultInjector inj;
  for (std::uint64_t site = 0; site < 50; ++site)
    EXPECT_FALSE(inj.should_inject(resil::FaultKind::StateNaN, site));
}

// --- Checksummed halo frames -----------------------------------------------

TEST(HaloFrames, RoundTrip) {
  const std::vector<real_t> payload = {1.5, -2.25, 0.0, 1e-300, 3.75};
  const std::vector<real_t> frame = resil::frame_payload(payload);
  ASSERT_EQ(frame.size(), payload.size() + 2);
  std::vector<real_t> got;
  ASSERT_TRUE(resil::unframe_payload(frame, got));
  EXPECT_EQ(got, payload);
}

TEST(HaloFrames, DetectsCorruptionAndTruncation) {
  const std::vector<real_t> payload = {1.0, 2.0, 3.0, 4.0};
  std::vector<real_t> corrupted = resil::frame_payload(payload);
  resil::corrupt_frame(corrupted, /*site=*/99);
  std::vector<real_t> got;
  EXPECT_FALSE(resil::unframe_payload(corrupted, got));

  std::vector<real_t> dropped = resil::frame_payload(payload);
  resil::drop_frame(dropped);
  EXPECT_FALSE(resil::unframe_payload(dropped, got));

  EXPECT_FALSE(resil::unframe_payload(std::vector<real_t>{}, got));
}

// --- Checkpoint wire format ------------------------------------------------

resil::Checkpoint sample_checkpoint() {
  resil::Checkpoint c;
  c.solver = "nsu3d";
  c.cycle = 17;
  c.state_stride = 6;
  c.history = {1.0, 0.31, 0.07};
  c.state = {0.25, -1.5, 3.0, 1e-12, 42.0, 0.0};
  return c;
}

TEST(CheckpointIo, StreamRoundTripIsExact) {
  const resil::Checkpoint c = sample_checkpoint();
  std::stringstream ss;
  resil::write_checkpoint(ss, c);
  const resil::Checkpoint r = resil::read_checkpoint(ss);
  EXPECT_EQ(r.solver, c.solver);
  EXPECT_EQ(r.cycle, c.cycle);
  EXPECT_EQ(r.state_stride, c.state_stride);
  EXPECT_EQ(r.history, c.history);
  EXPECT_EQ(r.state, c.state);
}

TEST(CheckpointIo, ReadsCheckpointWrittenByBytewiseCrc) {
  // Bytes written by the bytewise-table CRC writer: a checkpoint from
  // before the sliced checksum must still validate and load exactly.
  static const unsigned char kGolden[] = {
      0x43, 0x4f, 0x4c, 0x43, 0x4b, 0x50, 0x54, 0x31, 0x01, 0x00, 0x00, 0x00,
      0x05, 0x00, 0x00, 0x00, 0x6e, 0x73, 0x75, 0x33, 0x64, 0x07, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0,
      0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x3f, 0x0a, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0xd3,
      0xbf, 0x99, 0x99, 0x99, 0x99, 0x99, 0x99, 0xc9, 0xbf, 0x98, 0x99, 0x99,
      0x99, 0x99, 0x99, 0xb9, 0xbf, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x90,
      0x3c, 0x59, 0xf3, 0xf8, 0xc2, 0x1f, 0x6e, 0xa5, 0x01, 0x9a, 0x99, 0x99,
      0x99, 0x99, 0x99, 0xc9, 0x3f, 0x35, 0x33, 0x33, 0x33, 0x33, 0x33, 0xd3,
      0x3f, 0x9b, 0x99, 0x99, 0x99, 0x99, 0x99, 0xd9, 0x3f, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04,
      0xc0, 0x23, 0x40, 0x53, 0xed};
  std::istringstream in(std::string(reinterpret_cast<const char*>(kGolden),
                                    sizeof(kGolden)));
  const resil::Checkpoint c = resil::read_checkpoint(in);
  EXPECT_EQ(c.solver, "nsu3d");
  EXPECT_EQ(c.cycle, 7u);
  EXPECT_EQ(c.state_stride, 5u);
  EXPECT_EQ(c.history, (std::vector<double>{1.0, 0.5, 0.125}));
  std::vector<double> state;
  for (int i = 0; i < 10; ++i) state.push_back(0.1 * i - 0.3);
  state[4] = 1e-300;
  state[9] = -2.5;
  EXPECT_EQ(c.state, state);
  // ...and today's writer reproduces the same bytes.
  std::ostringstream out;
  resil::write_checkpoint(out, c);
  EXPECT_EQ(out.str(), in.str());
}

TEST(CheckpointIo, RejectsCorruptionTruncationAndBadMagic) {
  const resil::Checkpoint c = sample_checkpoint();
  std::stringstream ss;
  resil::write_checkpoint(ss, c);
  std::string bytes = ss.str();

  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x40;  // payload bit flip => CRC mismatch
  std::stringstream cs(corrupt);
  EXPECT_THROW(resil::read_checkpoint(cs), std::runtime_error);

  std::stringstream ts(bytes.substr(0, bytes.size() - 5));
  EXPECT_THROW(resil::read_checkpoint(ts), std::runtime_error);

  std::string magic = bytes;
  magic[0] = 'X';
  std::stringstream ms(magic);
  EXPECT_THROW(resil::read_checkpoint(ms), std::runtime_error);
}

TEST(CheckpointIo, DurableFileWriteAndTolerantRead) {
  const std::string path = testing::TempDir() + "resil_ckpt_roundtrip.bin";
  std::remove(path.c_str());
  EXPECT_FALSE(resil::try_read_checkpoint_file(path).has_value());

  const resil::Checkpoint c = sample_checkpoint();
  ASSERT_TRUE(resil::write_checkpoint_file(path, c));
  const auto r = resil::try_read_checkpoint_file(path);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->state, c.state);

  // A corrupt file is a recoverable condition, not a crash.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    f.put('\x7f');
  }
  EXPECT_FALSE(resil::try_read_checkpoint_file(path).has_value());
  std::remove(path.c_str());
}

/// Every corruption mode must surface as the matching typed
/// CheckpointError kind, not a generic failure: recovery code branches on
/// kind() (a BadVersion file is an operator problem; a CrcMismatch is
/// silent corruption worth alerting on).
TEST(CheckpointIo, CorruptionModesRaiseTypedErrors) {
  std::stringstream ss;
  resil::write_checkpoint(ss, sample_checkpoint());
  const std::string bytes = ss.str();

  const auto kind_of = [](const std::string& raw) {
    std::stringstream in(raw);
    try {
      resil::read_checkpoint(in);
    } catch (const resil::CheckpointError& e) {
      return e.kind();
    }
    return resil::CheckpointError::Kind::Malformed;
  };

  std::string magic = bytes;
  magic[3] ^= 0x08;  // mangled header
  EXPECT_EQ(kind_of(magic), resil::CheckpointError::Kind::BadMagic);

  std::string version = bytes;
  version[8] ^= 0x02;  // format revision u32 follows the 8-byte magic
  EXPECT_EQ(kind_of(version), resil::CheckpointError::Kind::BadVersion);

  EXPECT_EQ(kind_of(bytes.substr(0, bytes.size() - 5)),
            resil::CheckpointError::Kind::Truncated);
  EXPECT_EQ(kind_of(bytes.substr(0, 11)),
            resil::CheckpointError::Kind::Truncated);

  std::string flipped = bytes;
  flipped[flipped.size() - 5] ^= 0x10;  // last payload byte, not the crc
  EXPECT_EQ(kind_of(flipped), resil::CheckpointError::Kind::CrcMismatch);

  std::string crc = bytes;
  crc[crc.size() - 1] ^= 0x01;  // the stored crc itself
  EXPECT_EQ(kind_of(crc), resil::CheckpointError::Kind::CrcMismatch);
}

TEST(CheckpointIo, SuccessfulWriteLeavesNoStagingFile) {
  const std::string path = testing::TempDir() + "resil_ckpt_staged.bin";
  std::remove(path.c_str());
  ASSERT_TRUE(resil::write_checkpoint_file(path, sample_checkpoint()));
  // The durable writer stages into <path>.tmp and publishes via rename;
  // success must leave only the published file behind.
  std::ifstream staged(path + ".tmp");
  EXPECT_FALSE(staged.good());
  std::remove(path.c_str());
}

// --- Bit-identical checkpoint/restart on both solvers ----------------------

mesh::UnstructuredMesh small_wing() {
  mesh::WingMeshSpec spec;
  spec.n_wrap = 24;
  spec.n_span = 3;
  spec.n_normal = 10;
  spec.wall_spacing = 1e-4;
  return mesh::make_wing_mesh(spec);
}

nsu3d::Nsu3dSolver make_nsu3d(const mesh::UnstructuredMesh& m) {
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.reynolds = 3e6;
  nsu3d::Nsu3dOptions o;
  o.mg_levels = 2;
  return nsu3d::Nsu3dSolver(m, fc, o);
}

/// Uninterrupted vs. checkpoint-at-k-then-restart histories must agree bit
/// for bit; the checkpoint additionally passes through the binary format.
void check_nsu3d_restart(int threads) {
  PoolGuard guard;
  smp::set_global_threads(threads);
  const auto m = small_wing();
  constexpr int kTotal = 4, kSplit = 2;

  auto full_solver = make_nsu3d(m);
  std::vector<real_t> full{full_solver.residual_norm()};
  for (int c = 0; c < kTotal; ++c) full.push_back(full_solver.run_cycle());

  auto a = make_nsu3d(m);
  std::vector<real_t> hist{a.residual_norm()};
  for (int c = 0; c < kSplit; ++c) hist.push_back(a.run_cycle());
  std::stringstream ss;
  resil::write_checkpoint(ss, a.make_checkpoint(kSplit, hist));
  const resil::Checkpoint ck = resil::read_checkpoint(ss);

  auto b = make_nsu3d(m);
  b.restore_checkpoint(ck);
  std::vector<real_t> restarted(ck.history.begin(), ck.history.end());
  for (int c = kSplit; c < kTotal; ++c) restarted.push_back(b.run_cycle());

  ASSERT_EQ(restarted.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i)
    EXPECT_EQ(restarted[i], full[i]) << "cycle " << i;
}

TEST(CheckpointRestart, Nsu3dBitIdenticalSingleThread) {
  check_nsu3d_restart(1);
}

TEST(CheckpointRestart, Nsu3dBitIdenticalFourThreads) {
  check_nsu3d_restart(4);
}

cartesian::CartMesh small_sphere_mesh() {
  geom::Aabb domain;
  domain.expand({-1.5, -1.5, -1.5});
  domain.expand({1.5, 1.5, 1.5});
  const auto sphere = geom::make_sphere({0, 0, 0}, 0.4, 12, 24);
  cartesian::CartMeshOptions mo;
  mo.base_n = 6;
  mo.max_level = 1;
  return cartesian::build_cart_mesh(sphere, domain, mo);
}

cart3d::Cart3DSolver make_cart3d(const cartesian::CartMesh& m) {
  euler::FlowConditions fc;
  fc.mach = 0.3;
  cart3d::SolverOptions o;
  o.mg_levels = 2;
  return cart3d::Cart3DSolver(m, fc, o);
}

void check_cart3d_restart(int threads) {
  PoolGuard guard;
  smp::set_global_threads(threads);
  const auto m = small_sphere_mesh();
  constexpr int kTotal = 6, kSplit = 3;

  auto full_solver = make_cart3d(m);
  std::vector<real_t> full{full_solver.residual_norm()};
  for (int c = 0; c < kTotal; ++c) full.push_back(full_solver.run_cycle());

  auto a = make_cart3d(m);
  std::vector<real_t> hist{a.residual_norm()};
  for (int c = 0; c < kSplit; ++c) hist.push_back(a.run_cycle());
  std::stringstream ss;
  resil::write_checkpoint(ss, a.make_checkpoint(kSplit, hist));
  const resil::Checkpoint ck = resil::read_checkpoint(ss);

  auto b = make_cart3d(m);
  b.restore_checkpoint(ck);
  std::vector<real_t> restarted(ck.history.begin(), ck.history.end());
  for (int c = kSplit; c < kTotal; ++c) restarted.push_back(b.run_cycle());

  ASSERT_EQ(restarted.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i)
    EXPECT_EQ(restarted[i], full[i]) << "cycle " << i;
}

TEST(CheckpointRestart, Cart3dBitIdenticalSingleThread) {
  check_cart3d_restart(1);
}

TEST(CheckpointRestart, Cart3dBitIdenticalFourThreads) {
  check_cart3d_restart(4);
}

TEST(CheckpointRestart, RestoreRejectsWrongSolverOrShape) {
  const auto m = small_sphere_mesh();
  auto s = make_cart3d(m);
  resil::Checkpoint wrong_tag = s.make_checkpoint(0, {});
  wrong_tag.solver = "nsu3d";
  EXPECT_THROW(s.restore_checkpoint(wrong_tag), std::runtime_error);

  resil::Checkpoint wrong_size = s.make_checkpoint(0, {});
  wrong_size.state.pop_back();
  EXPECT_THROW(s.restore_checkpoint(wrong_size), std::runtime_error);
}

/// A rejected restore must leave the solver exactly where it was: after
/// the throw, the continued run stays bit-identical to a control solver
/// that never saw the bad checkpoint — at every thread count.
void check_failed_restore_mutates_nothing(int threads) {
  PoolGuard guard;
  smp::set_global_threads(threads);
  const auto m = small_wing();

  auto control = make_nsu3d(m);
  auto victim = make_nsu3d(m);
  control.run_cycle();
  victim.run_cycle();

  resil::Checkpoint wrong_tag = victim.make_checkpoint(1, {});
  wrong_tag.solver = "cart3d";
  EXPECT_THROW(victim.restore_checkpoint(wrong_tag), std::runtime_error);
  resil::Checkpoint ragged = victim.make_checkpoint(1, {});
  ragged.state.pop_back();
  EXPECT_THROW(victim.restore_checkpoint(ragged), std::runtime_error);

  for (int c = 0; c < 2; ++c)
    EXPECT_EQ(victim.run_cycle(), control.run_cycle()) << "cycle " << c;
}

TEST(CheckpointRestart, FailedRestoreMutatesNothingSingleThread) {
  check_failed_restore_mutates_nothing(1);
}

TEST(CheckpointRestart, FailedRestoreMutatesNothingTwoThreads) {
  check_failed_restore_mutates_nothing(2);
}

TEST(CheckpointRestart, FailedRestoreMutatesNothingFourThreads) {
  check_failed_restore_mutates_nothing(4);
}

// --- Guarded solves --------------------------------------------------------

TEST(GuardedSolve, MatchesPlainSolveWithoutFaults) {
  const auto m = small_sphere_mesh();
  auto plain = make_cart3d(m);
  const std::vector<real_t> expected = plain.solve(6, 12);

  auto guarded = make_cart3d(m);
  const resil::GuardedSolveResult gr = guarded.solve_guarded(6, 12);
  EXPECT_EQ(gr.outcome, resil::SolveOutcome::Ok);
  EXPECT_EQ(gr.rollbacks, 0);
  ASSERT_EQ(gr.history.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(gr.history[i], expected[i]) << "cycle " << i;
}

TEST(GuardedSolve, RecoversFromInjectedNaN) {
  InjectorGuard faults("seed=11,state_nan=1@1");
  const auto m = small_sphere_mesh();
  auto s = make_cart3d(m);
  const resil::GuardedSolveResult gr = s.solve_guarded(6, 12);
  EXPECT_EQ(gr.outcome, resil::SolveOutcome::Recovered);
  EXPECT_GE(gr.rollbacks, 1);
  for (real_t r : gr.history) EXPECT_TRUE(std::isfinite(r));
  EXPECT_EQ(resil::FaultInjector::global().injected(
                resil::FaultKind::StateNaN),
            1u);
}

TEST(GuardedSolve, FailsOnceRetryBudgetIsExhausted) {
  // Every cycle is poisoned and only one retry is allowed: the guard must
  // give up cleanly (outcome Failed), never hang or throw.
  InjectorGuard faults("seed=11,state_nan=1");
  const auto m = small_sphere_mesh();
  auto s = make_cart3d(m);
  resil::GuardedSolveOptions opt;
  opt.guard.max_retries = 1;
  const resil::GuardedSolveResult gr = s.solve_guarded(6, 12, opt);
  EXPECT_EQ(gr.outcome, resil::SolveOutcome::Failed);
  EXPECT_EQ(gr.rollbacks, 1);
}

TEST(GuardedSolve, ResumesFromDurableCheckpointBitIdentically) {
  const std::string path = testing::TempDir() + "resil_guarded_resume.bin";
  std::remove(path.c_str());
  const auto m = small_sphere_mesh();

  resil::GuardedSolveOptions opt;
  opt.checkpoint_path = path;
  opt.checkpoint_interval = 2;

  auto uninterrupted = make_cart3d(m);
  const resil::GuardedSolveResult whole = uninterrupted.solve_guarded(8, 12);

  auto first = make_cart3d(m);
  const resil::GuardedSolveResult half = first.solve_guarded(4, 12, opt);
  EXPECT_FALSE(half.resumed);

  // A "new process": a fresh solver picks up the on-disk checkpoint and
  // reproduces the uninterrupted history exactly.
  auto second = make_cart3d(m);
  const resil::GuardedSolveResult rest = second.solve_guarded(8, 12, opt);
  EXPECT_TRUE(rest.resumed);
  EXPECT_EQ(rest.resumed_from, 4u);
  ASSERT_EQ(rest.history.size(), whole.history.size());
  for (std::size_t i = 0; i < whole.history.size(); ++i)
    EXPECT_EQ(rest.history[i], whole.history[i]) << "cycle " << i;
  std::remove(path.c_str());
}

// --- Halo exchanges under injected faults ----------------------------------

core::PartitionData halo_expected(const core::PartitionData& data,
                                  const core::RequestLists& requests) {
  core::PartitionData out(data.size(), std::vector<real_t>{});
  for (std::size_t p = 0; p < data.size(); ++p)
    for (const core::HaloRequest& r : requests[p])
      out[p].push_back(
          data[std::size_t(r.from_partition)][std::size_t(r.item)]);
  return out;
}

void make_halo_scenario(core::PartitionData& data,
                        core::RequestLists& requests) {
  Xoshiro256 rng(21);
  constexpr index_t nparts = 8, items = 16, reqs = 12;
  data.resize(nparts);
  for (auto& d : data) {
    d.resize(items);
    for (auto& v : d) v = rng.uniform(-10, 10);
  }
  requests.resize(nparts);
  for (auto& rl : requests)
    for (index_t k = 0; k < reqs; ++k)
      rl.push_back({index_t(rng.below(nparts)), index_t(rng.below(items))});
}

TEST(HaloFaults, DroppedMessagesAreRetransmittedExactly) {
  core::PartitionData data;
  core::RequestLists requests;
  make_halo_scenario(data, requests);
  InjectorGuard faults("seed=3,halo_drop=1");
  core::ExchangePlan plan(requests);
  EXPECT_EQ(plan.exchange(data), halo_expected(data, requests));
  // halo_drop=1 faults every attempt up to the cap, whose last is clean.
  EXPECT_GT(plan.stats().retransmits, 0u);
  EXPECT_GT(resil::FaultInjector::global().injected(
                resil::FaultKind::HaloDrop),
            0u);
}

TEST(HaloFaults, CorruptedMessagesAreRejectedAndResent) {
  core::PartitionData data;
  core::RequestLists requests;
  make_halo_scenario(data, requests);
  InjectorGuard faults("seed=5,halo_corrupt=0.5");
  core::ExchangePlan plan(requests, {core::ExchangeStrategy::MasterThread, 2});
  EXPECT_EQ(plan.exchange(data), halo_expected(data, requests));
  EXPECT_GT(plan.stats().rejected, 0u);
  EXPECT_GT(resil::FaultInjector::global().injected(
                resil::FaultKind::HaloCorrupt),
            0u);
}

// --- Database sweep recovery -----------------------------------------------

driver::DatabaseSpec tiny_db() {
  driver::DatabaseSpec spec;
  spec.deflections = {0.0};
  spec.machs = {1.4};
  spec.alphas_deg = {0.0, 2.0};
  spec.betas_deg = {0.0};
  spec.geometry = [](real_t d) { return geom::make_sslv(d, 1); };
  spec.mesh_options.base_n = 6;
  spec.mesh_options.max_level = 1;
  spec.solver_options.flux = euler::FluxScheme::VanLeer;
  spec.solver_options.second_order = false;
  spec.solver_options.mg_levels = 1;
  spec.max_cycles = 4;
  spec.simultaneous_cases = 1;  // exact budget accounting in the test
  return spec;
}

TEST(DatabaseResilience, CrashedCaseIsRetriedAndRecovered) {
  InjectorGuard faults("seed=2,case_throw=1@1");
  driver::DatabaseFill fill(tiny_db());
  const auto results = fill.run();
  ASSERT_EQ(results.size(), 2u);
  int recovered = 0;
  for (const auto& r : results) {
    EXPECT_NE(r.status, driver::CaseStatus::Failed);
    if (r.status == driver::CaseStatus::Recovered) {
      ++recovered;
      EXPECT_GE(r.attempts, 2);
    }
  }
  EXPECT_EQ(recovered, 1);
  EXPECT_EQ(fill.stats().cases_recovered, 1);
  EXPECT_EQ(fill.stats().cases_failed, 0);
}

TEST(DatabaseResilience, ExhaustedRetriesFallBackToDegraded) {
  // Two full-fidelity attempts per case; a budget of exactly two injected
  // crashes sinks both, leaving only the degraded re-run.
  driver::DatabaseSpec spec = tiny_db();
  spec.alphas_deg = {0.0};
  spec.case_retries = 1;
  InjectorGuard faults("seed=2,case_throw=1@2");
  driver::DatabaseFill fill(spec);
  const auto results = fill.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, driver::CaseStatus::Degraded);
  EXPECT_EQ(results[0].attempts, 3);
  EXPECT_TRUE(std::isfinite(results[0].cl));
  EXPECT_EQ(fill.stats().cases_degraded, 1);
}

TEST(DatabaseResilience, SweepCompletesEvenWhenEveryPathFails) {
  driver::DatabaseSpec spec = tiny_db();
  spec.case_retries = 0;
  InjectorGuard faults("seed=2,case_throw=1");  // uncapped: every attempt dies
  driver::DatabaseFill fill(spec);
  const auto results = fill.run();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results)
    EXPECT_EQ(r.status, driver::CaseStatus::Failed);
  EXPECT_EQ(fill.stats().cases_failed, 2);
}

TEST(DatabaseResilience, ManifestResumeSkipsCompletedCases) {
  const std::string path = testing::TempDir() + "resil_sweep_manifest.txt";
  std::remove(path.c_str());
  driver::DatabaseSpec spec = tiny_db();
  spec.manifest_path = path;

  driver::DatabaseFill first(spec);
  const auto before = first.run();
  EXPECT_EQ(first.stats().cases_run, 2);
  EXPECT_EQ(first.stats().cases_skipped, 0);

  // "Restart after a kill": the second sweep reloads every completed case
  // from the manifest, bit for bit, without re-running a single solve.
  driver::DatabaseFill second(spec);
  const auto after = second.run();
  EXPECT_EQ(second.stats().cases_run, 0);
  EXPECT_EQ(second.stats().cases_skipped, 2);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(after[i].from_manifest);
    EXPECT_EQ(after[i].cl, before[i].cl) << "case " << i;
    EXPECT_EQ(after[i].cd, before[i].cd) << "case " << i;
    EXPECT_EQ(after[i].status, before[i].status) << "case " << i;
  }
  std::remove(path.c_str());
}

TEST(SweepManifest, SkipsTruncatedTrailingLine) {
  const std::string path = testing::TempDir() + "resil_manifest_trunc.txt";
  {
    std::ofstream f(path);
    f << "case 0 ok 1 2 3 4 5 6\n";
    f << "case 1 ok 1 2";  // killed mid-write
  }
  resil::SweepManifest m(path);
  EXPECT_TRUE(m.contains(0));
  EXPECT_FALSE(m.contains(1));
  EXPECT_EQ(m.size(), 1u);
  std::remove(path.c_str());
}

TEST(SweepManifest, SkipsCorruptedMiddleLinesAndKeepsTheRest) {
  const std::string path = testing::TempDir() + "resil_manifest_corrupt.txt";
  {
    std::ofstream f(path);
    f << "case 0 ok 1 2 3 4 5 6\n";
    f << "garbage that is not a record\n";    // bit rot / editor accident
    f << "case 2 ok 1 2 x 4 5 6\n";           // non-numeric value
    f << "case 3 recovered 9 8 7 6 5 4\n";
  }
  resil::SweepManifest m(path);
  EXPECT_TRUE(m.contains(0));
  EXPECT_FALSE(m.contains(2));  // corrupt record re-runs, never half-loads
  EXPECT_TRUE(m.contains(3));
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(3), nullptr);
  EXPECT_EQ(m.find(3)->status, "recovered");
  EXPECT_EQ(m.find(3)->values[0], 9.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace columbia
