/// Fault-tolerance tests: deterministic fault injection (comm post/complete,
/// rank-worker death, torn IO writes), the communicator's no-deadlock abort
/// and wait-timeout paths, the run-health scan, and the guarded runner's
/// rollback/retry + latest-valid-manifest resume.  These carry the
/// `fault-smoke` ctest label so the sanitize and TSan CI jobs race-check the
/// injected-abort unwind.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>

#include "app/health.hpp"
#include "cases/runner.hpp"
#include "io/checkpoint.hpp"
#include "sim/comm.hpp"
#include "sim/fault.hpp"

namespace {

namespace fs = std::filesystem;
using namespace igr;

/// Fresh scratch directory per test (guarded runs leave checkpoint files).
fs::path scratch_dir(const std::string& name) {
  const fs::path d = fs::temp_directory_path() / ("igr_fault_" + name);
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

// --- FaultPlan / FaultInjector -------------------------------------------

TEST(FaultPlan, ParseRoundTrip) {
  const auto p = sim::FaultPlan::parse("post=3");
  EXPECT_EQ(p.comm_post_at, 3);
  EXPECT_TRUE(p.armed());

  const auto q = sim::FaultPlan::parse("phase=2@1,io=7");
  EXPECT_EQ(q.phase_at, 2);
  EXPECT_EQ(q.phase_rank, 1);
  EXPECT_EQ(q.io_write_at, 7);
  EXPECT_NE(q.describe().find("phase@2 rank 1"), std::string::npos);

  EXPECT_FALSE(sim::FaultPlan{}.armed());
  EXPECT_EQ(sim::FaultPlan{}.describe(), "disarmed");
  EXPECT_THROW((void)sim::FaultPlan::parse("frobnicate=1"),
               std::invalid_argument);
  EXPECT_THROW((void)sim::FaultPlan::parse("post=banana"),
               std::invalid_argument);
}

TEST(FaultPlan, RanksOutsideTheIntRangeAreRejected) {
  // 4294967297 = 2^32 + 1 would wrap to rank 1 in an int.
  EXPECT_THROW((void)sim::FaultPlan::parse("phase=1@4294967297"),
               std::invalid_argument);
  EXPECT_THROW((void)sim::FaultPlan::parse("kill=1@4294967297"),
               std::invalid_argument);
  EXPECT_EQ(sim::FaultPlan::parse("phase=1@2147483647").phase_rank,
            2147483647);
}

TEST(FaultPlan, SeededPlansAreDeterministicAndArmed) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const auto a = sim::FaultPlan::from_seed(seed);
    const auto b = sim::FaultPlan::from_seed(seed);
    EXPECT_TRUE(a.armed()) << "seed " << seed;
    EXPECT_EQ(a.describe(), b.describe()) << "seed " << seed;
  }
  // The seed also reaches the plan via the parse() front door.
  const auto c = sim::FaultPlan::parse("seed=7");
  EXPECT_EQ(c.describe(), sim::FaultPlan::from_seed(7).describe());
}

TEST(FaultInjector, FiresExactlyOnceAtItsOrdinal) {
  sim::FaultPlan plan;
  plan.comm_post_at = 3;
  sim::FaultInjector inj(plan);
  EXPECT_NO_THROW(inj.on_comm_post());
  EXPECT_NO_THROW(inj.on_comm_post());
  EXPECT_FALSE(inj.fired());
  EXPECT_THROW(inj.on_comm_post(), sim::InjectedFault);
  EXPECT_TRUE(inj.fired());
  // The counter keeps growing past the trigger: a retry after rollback must
  // not re-hit the same fault (that is the injector-outlives-rebuild
  // contract the guarded runner relies on).
  for (int i = 0; i < 10; ++i) EXPECT_NO_THROW(inj.on_comm_post());
  EXPECT_EQ(inj.comm_posts(), 13);
}

// --- Comm: abort + timeout never deadlock --------------------------------

TEST(CommFault, WaitTimeoutAbortsInsteadOfDeadlocking) {
  const auto g = mesh::Grid::cube(8);
  sim::Comm comm(g, 2, 1, 1, /*periodic=*/true);
  comm.set_wait_timeout(0.2);

  const auto lg = comm.local_grid(0);
  common::Field3<double> f(lg.nx(), lg.ny(), lg.nz(), 2);
  const common::Field3<double>* cf = &f;
  comm.post_axis(sim::Comm::kChanSigma, 0, &cf, 1, 0);

  // Rank 1 never posts (a dead peer): rank 0's complete must time out and
  // self-abort with a reason rather than spin forever.
  common::Field3<double>* mf = &f;
  EXPECT_FALSE(comm.complete_axis(sim::Comm::kChanSigma, 0, &mf, 1, 0));
  EXPECT_TRUE(comm.aborted());
  EXPECT_NE(comm.abort_reason().find("halo wait exceeded"), std::string::npos)
      << comm.abort_reason();
}

TEST(CommFault, InjectedPostFaultPoisonsTheDriverWithItsReason) {
  const auto* spec = cases::find("taylor-green");
  ASSERT_NE(spec, nullptr);
  cases::RunOptions opts;
  opts.n = 12;
  opts.steps = 4;
  opts.ranks = {2, 1, 1};
  opts.jacobi_sweeps = true;
  opts.faults = sim::FaultPlan::parse("post=10");
  opts.comm_timeout_s = 30.0;
  cases::CaseRun<common::Fp64> run(*spec, opts);

  // The fault surfaces from step() as the InjectedFault it is (RankTeam
  // rethrows the worker's first exception; Comm's abort wakes every peer —
  // under TSan this is the no-deadlock unwind being race-checked).
  EXPECT_THROW(
      {
        for (int s = 0; s < 4; ++s) run.step();
      },
      sim::InjectedFault);
  ASSERT_NE(run.injector(), nullptr);
  EXPECT_TRUE(run.injector()->fired());

  // The communicator is latched poisoned: further stepping refuses loudly
  // and names the original fault instead of computing on stale halos.
  try {
    run.step();
    FAIL() << "expected the poisoned communicator to refuse";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("poisoned"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("injected fault"), std::string::npos)
        << e.what();
  }
}

// --- Fault injection x bitwise recovery ----------------------------------

/// Guarded recovery on a decomposed run: inject `fault_spec` mid-run and
/// require the rollback/retry to land on exactly the bits of an unfaulted
/// run.
template <class Policy>
void expect_bitwise_recovery(const char* fault_spec, const char* tag) {
  const auto* spec = cases::find("taylor-green");
  ASSERT_NE(spec, nullptr);
  const auto dir = scratch_dir(tag);

  cases::RunOptions opts;
  opts.n = 12;
  opts.steps = 8;
  opts.ranks = {2, 1, 1};
  opts.jacobi_sweeps = true;
  opts.comm_timeout_s = 30.0;

  const auto clean = cases::run_case<Policy>(*spec, opts);

  opts.faults = sim::FaultPlan::parse(fault_spec);
  cases::GuardOptions guard;
  guard.checkpoint_every = 2;
  guard.dir = dir.string();
  guard.max_retries = 2;
  // A comm fault is transient, not an instability: retry at the SAME CFL so
  // the checkpoint-resumed continuation can be compared bitwise.  (The
  // default 0.5 backoff targets unhealthy states, where replaying the same
  // trajectory would just blow up again.)
  guard.cfl_backoff = 1.0;

  const auto rep = cases::run_case_guarded<Policy>(*spec, opts, guard);
  EXPECT_TRUE(rep.completed) << rep.failure;
  EXPECT_GE(rep.retries, 1);  // the injected fault really fired
  EXPECT_EQ(rep.result.state_fnv, clean.state_fnv)
      << "recovery diverged from the unfaulted run";
  // The guard report names the plan it ran under (forensics contract).
  EXPECT_EQ(rep.fault_plan, opts.faults.describe());
  fs::remove_all(dir);
}

TEST(GuardedRecovery, Fp64PostFaultRecoversBitwise) {
  expect_bitwise_recovery<common::Fp64>("post=300", "rec_post64");
}

TEST(GuardedRecovery, Fp64CompleteFaultRecoversBitwise) {
  expect_bitwise_recovery<common::Fp64>("complete=200", "rec_complete64");
}

TEST(GuardedRecovery, Bf16x32CompleteFaultRecoversBitwise) {
  expect_bitwise_recovery<common::Bf16x32>("complete=200", "rec_bf16");
}

// --- Health scan ----------------------------------------------------------

common::StateField3<double> uniform_state(int n, double rho, double e) {
  common::StateField3<double> q(n, n, n, 2);
  for (int c = 0; c < common::kNumVars; ++c)
    for (int k = 0; k < n; ++k)
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i)
          q[c](i, j, k) = (c == common::kRho) ? rho
                          : (c == common::kEnergy) ? e
                                              : 0.0;
  return q;
}

TEST(Health, CleanStateIsHealthy) {
  const eos::IdealGas eos(1.4);
  const auto h = app::scan_health(uniform_state(4, 1.0, 2.5), eos,
                                  common::ExecSpace::serial());
  EXPECT_TRUE(h.healthy());
  EXPECT_TRUE(h.healthy(/*strict_pressure=*/true));
  EXPECT_EQ(h.cells, 64u);
  EXPECT_DOUBLE_EQ(h.min_density, 1.0);
  EXPECT_DOUBLE_EQ(h.min_pressure, 1.0);  // (gamma-1) * 2.5
}

TEST(Health, NanAndNegativeDensityAreAlwaysFatal) {
  const eos::IdealGas eos(1.4);
  auto q = uniform_state(4, 1.0, 2.5);
  q[common::kEnergy](1, 2, 3) = std::nan("");
  q[common::kRho](0, 0, 0) = -0.5;
  const auto h = app::scan_health(q, eos, common::ExecSpace::serial());
  EXPECT_EQ(h.nonfinite_cells, 1u);
  EXPECT_EQ(h.negative_density_cells, 1u);
  EXPECT_FALSE(h.healthy());
  EXPECT_NE(h.describe().find("1 nonfinite"), std::string::npos);
}

TEST(Health, NonpositivePressureFailsOnlyStrictScans) {
  // E below the kinetic floor: finite, positive rho, negative pressure —
  // the jet start-up-transient shape, fatal only under strict_pressure.
  const eos::IdealGas eos(1.4);
  auto q = uniform_state(4, 1.0, 2.5);
  q[common::kMomX](2, 2, 2) = 3.0;  // ke = 4.5 > E = 2.5
  const auto h = app::scan_health(q, eos, common::ExecSpace::serial());
  EXPECT_EQ(h.nonpositive_pressure_cells, 1u);
  EXPECT_TRUE(h.healthy());
  EXPECT_FALSE(h.healthy(/*strict_pressure=*/true));
}

// --- Guarded runner: rollback/retry, resume, torn IO ---------------------

TEST(GuardedRun, RecoversFromInjectedCommFault) {
  const auto* spec = cases::find("taylor-green");
  ASSERT_NE(spec, nullptr);
  const auto dir = scratch_dir("comm");

  cases::RunOptions opts;
  opts.n = 12;
  opts.steps = 8;
  opts.ranks = {2, 1, 1};
  opts.jacobi_sweeps = true;
  opts.faults = sim::FaultPlan::parse("post=300");
  opts.comm_timeout_s = 30.0;
  cases::GuardOptions guard;
  guard.checkpoint_every = 2;
  guard.dir = dir.string();
  guard.max_retries = 2;

  const auto rep = cases::run_case_guarded<common::Fp64>(*spec, opts, guard);
  EXPECT_TRUE(rep.completed) << rep.failure;
  EXPECT_GE(rep.retries, 1);
  EXPECT_EQ(rep.result.steps, 8);
  EXPECT_GE(rep.checkpoints_written, 2);
  fs::remove_all(dir);
}

TEST(GuardedRun, RecoversFromRankWorkerDeath) {
  const auto* spec = cases::find("taylor-green");
  ASSERT_NE(spec, nullptr);
  const auto dir = scratch_dir("phase");

  cases::RunOptions opts;
  opts.n = 12;
  opts.steps = 6;
  opts.ranks = {2, 1, 1};
  opts.jacobi_sweeps = true;
  opts.faults = sim::FaultPlan::parse("phase=40@1");
  opts.comm_timeout_s = 30.0;
  cases::GuardOptions guard;
  guard.checkpoint_every = 2;
  guard.dir = dir.string();
  guard.max_retries = 2;

  const auto rep = cases::run_case_guarded<common::Fp64>(*spec, opts, guard);
  EXPECT_TRUE(rep.completed) << rep.failure;
  EXPECT_GE(rep.retries, 1);
  fs::remove_all(dir);
}

TEST(GuardedRun, ResumeSkipsCorruptNewestCheckpoint) {
  const auto* spec = cases::find("sod-x");
  ASSERT_NE(spec, nullptr);
  const auto dir = scratch_dir("resume");

  cases::RunOptions opts;
  opts.n = 16;
  opts.steps = 12;
  cases::GuardOptions guard;
  guard.checkpoint_every = 4;
  guard.dir = dir.string();

  const auto first = cases::run_case_guarded<common::Fp64>(*spec, opts, guard);
  ASSERT_TRUE(first.completed) << first.failure;
  const std::uint64_t straight_fnv = first.result.state_fnv;

  // Bit-rot the newest checkpoint's payload: resume must CRC-detect it and
  // fall back to the previous valid entry, then still land on the same
  // bits as the uninterrupted run (single-domain restarts are bitwise).
  const auto manifest =
      io::read_manifest((dir / "sod-x.manifest").string());
  ASSERT_GE(manifest.size(), 2u);
  const auto& newest = manifest.back();
  {
    std::fstream f(newest.path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(newest.path) - 64));
    char b = 0;
    f.read(&b, 1);
    f.seekp(-1, std::ios::cur);
    b = static_cast<char>(b ^ 0x40);
    f.write(&b, 1);
  }

  guard.resume = true;
  const auto second =
      cases::run_case_guarded<common::Fp64>(*spec, opts, guard);
  EXPECT_TRUE(second.completed) << second.failure;
  EXPECT_EQ(second.resumed_step, manifest[manifest.size() - 2].step);
  EXPECT_GE(second.checkpoints_rejected, 1);
  EXPECT_EQ(second.result.state_fnv, straight_fnv);
  fs::remove_all(dir);
}

TEST(GuardedRun, ResumeRejectsManifestPathsItDidNotWrite) {
  // A tampered manifest names a file outside the checkpoint directory.
  // Rotation must never delete it: resume accepts only the paths the
  // runner itself writes, and counts the rest as rejected.
  const auto* spec = cases::find("sod-x");
  ASSERT_NE(spec, nullptr);
  const auto root = scratch_dir("tampered");
  const auto dir = root / "ckpt";
  fs::create_directories(dir);
  fs::create_directories(root / "outside");
  const auto victim = root / "outside" / "victim";
  std::ofstream(victim) << "keep me";

  cases::RunOptions opts;
  opts.n = 16;
  opts.steps = 4;
  cases::GuardOptions guard;
  guard.checkpoint_every = 2;
  guard.keep = 2;
  guard.dir = dir.string();
  const auto first = cases::run_case_guarded<common::Fp64>(*spec, opts, guard);
  ASSERT_TRUE(first.completed) << first.failure;

  const auto manifest_path = (dir / "sod-x.manifest").string();
  auto manifest = io::read_manifest(manifest_path);
  ASSERT_EQ(manifest.size(), 2u);
  manifest.insert(manifest.begin(),
                  {0, 0.0, (dir / ".." / "outside" / "victim").string()});
  io::write_manifest(manifest_path, manifest);

  opts.steps = 8;
  guard.resume = true;
  const auto second =
      cases::run_case_guarded<common::Fp64>(*spec, opts, guard);
  EXPECT_TRUE(second.completed) << second.failure;
  EXPECT_EQ(second.resumed_step, 4);
  EXPECT_EQ(second.checkpoints_rejected, 1);
  EXPECT_TRUE(fs::exists(victim)) << "rotation deleted a foreign path";
  fs::remove_all(root);
}

TEST(GuardedRun, HealthGuardBacksOffCflUntilStable) {
  // WENO at CFL 1.0 (2.5 x the registered 0.4) blows up on the Sedov blast
  // within a few dozen steps; the health guard must catch the nonfinite
  // state, roll back, and complete at a reduced CFL.
  const auto* spec = cases::find("sedov");
  ASSERT_NE(spec, nullptr);
  const auto dir = scratch_dir("cfl");

  cases::RunOptions opts;
  opts.n = 16;
  opts.steps = 40;
  opts.scheme = app::SchemeKind::kBaselineWeno;
  opts.cfl_scale = 2.5;
  cases::GuardOptions guard;
  guard.checkpoint_every = 8;
  guard.health_every = 2;
  guard.dir = dir.string();
  guard.max_retries = 3;
  guard.cfl_backoff = 0.3;

  const auto rep = cases::run_case_guarded<common::Fp64>(*spec, opts, guard);
  EXPECT_TRUE(rep.completed) << rep.failure;
  EXPECT_GE(rep.retries, 1);
  EXPECT_LT(rep.final_cfl_scale, 2.5);
  EXPECT_TRUE(std::isfinite(rep.result.diag.min_pressure));
  fs::remove_all(dir);
}

TEST(GuardedRun, RetryBudgetExhaustionFailsCleanly) {
  const auto* spec = cases::find("sedov");
  ASSERT_NE(spec, nullptr);
  const auto dir = scratch_dir("exhaust");

  cases::RunOptions opts;
  opts.n = 16;
  opts.steps = 40;
  opts.scheme = app::SchemeKind::kBaselineWeno;
  opts.cfl_scale = 2.5;
  cases::GuardOptions guard;
  guard.health_every = 2;
  guard.dir = dir.string();
  guard.max_retries = 0;  // no second chances

  const auto rep = cases::run_case_guarded<common::Fp64>(*spec, opts, guard);
  EXPECT_FALSE(rep.completed);
  EXPECT_NE(rep.failure.find("unhealthy"), std::string::npos) << rep.failure;
  EXPECT_NE(rep.failure.find("exhausted"), std::string::npos) << rep.failure;
  fs::remove_all(dir);
}

TEST(GuardedRun, TornCheckpointWriteIsSurvived) {
  const auto* spec = cases::find("sod-x");
  ASSERT_NE(spec, nullptr);
  const auto dir = scratch_dir("torn");

  cases::RunOptions opts;
  opts.n = 16;
  opts.steps = 9;
  opts.faults = sim::FaultPlan::parse("io=40");  // dies in the first save
  cases::GuardOptions guard;
  guard.checkpoint_every = 3;
  guard.dir = dir.string();

  const auto rep = cases::run_case_guarded<common::Fp64>(*spec, opts, guard);
  EXPECT_TRUE(rep.completed) << rep.failure;
  EXPECT_EQ(rep.checkpoint_failures, 1);
  EXPECT_GE(rep.checkpoints_written, 2);  // the later cadences succeed
  EXPECT_EQ(rep.retries, 0);  // a torn save never harms the run itself

  // Every manifest entry must point at a file that passes a full CRC scan
  // (the torn temp never reached a final path or the manifest).
  const auto manifest =
      io::read_manifest((dir / "sod-x.manifest").string());
  EXPECT_GE(manifest.size(), 2u);
  for (const auto& e : manifest) {
    const auto v = io::validate_checkpoint(e.path);
    EXPECT_TRUE(v.ok) << e.path << ": " << v.error;
  }
  fs::remove_all(dir);
}

}  // namespace
