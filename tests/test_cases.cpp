/// Golden regressions over the case library: registry integrity, per-case
/// diagnostic bands and conserved-quantity checksums at FP64, precision
/// sweeps (FP32 / FP16x32), the isentropic-vortex convergence-order anchor,
/// a distributed-vs-serial bitwise check through the registry, and bitwise
/// checkpoint/restart continuation through the case runner.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "cases/runner.hpp"

namespace {

namespace fs = std::filesystem;
using igr::common::Fp16x32;
using igr::common::Fp32;
using igr::common::Fp64;
using igr::common::kNumVars;
namespace cases = igr::cases;

void expect_in(const cases::Band& b, double v, const char* what) {
  EXPECT_TRUE(b.contains(v))
      << what << " = " << v << " outside [" << b.lo << ", " << b.hi << "]";
}

/// The full FP64 golden contract of one case.
void check_golden(const cases::CaseSpec& spec, const cases::RunResult& r) {
  EXPECT_TRUE(std::isfinite(r.diag.max_mach));
  EXPECT_TRUE(std::isfinite(r.diag.kinetic_energy));
  EXPECT_TRUE(std::isfinite(r.diag.enstrophy));
  EXPECT_GT(r.diag.min_density, 0.0);
  expect_in(spec.golden.max_mach, r.diag.max_mach, "max_mach");
  expect_in(spec.golden.min_density, r.diag.min_density, "min_density");
  expect_in(spec.golden.max_density, r.diag.max_density, "max_density");
  expect_in(spec.golden.min_pressure, r.diag.min_pressure, "min_pressure");
  expect_in(spec.golden.enstrophy, r.diag.enstrophy, "enstrophy");
  if (spec.golden.conservation_rtol > 0.0) {
    const double rtol = spec.golden.conservation_rtol;
    EXPECT_NEAR(r.totals_final.rho, r.totals_initial.rho,
                rtol * std::abs(r.totals_initial.rho))
        << "mass checksum";
    EXPECT_NEAR(r.totals_final.e, r.totals_initial.e,
                rtol * std::abs(r.totals_initial.e))
        << "energy checksum";
  }
  if (spec.golden.l1_error_max > 0.0) {
    ASSERT_GE(r.l1_error, 0.0) << "case promises an analytic solution";
    EXPECT_LT(r.l1_error, spec.golden.l1_error_max);
  }
}

TEST(CaseRegistry, ExposesAtLeastEightWellFormedCases) {
  const auto names = cases::list();
  EXPECT_GE(names.size(), 8u);
  for (const auto name : names) {
    SCOPED_TRACE(std::string(name));
    const auto* c = cases::find(name);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->name, name);
    ASSERT_TRUE(c->grid && c->bc && c->config && c->initial);
    EXPECT_GE(c->golden_n, 8);
    EXPECT_GE(c->golden_steps, 1);
    EXPECT_GT(c->grid(c->golden_n).cells(), 0u);
    EXPECT_NO_THROW(c->config().validate());
    // The initial condition is evaluable at the domain's corner and center.
    const auto g = c->grid(c->golden_n);
    const auto ic = c->initial();
    EXPECT_GT(ic(g.x(0), g.y(0), g.z(0)).rho, 0.0);
    EXPECT_GT(
        ic(g.x(g.nx() / 2), g.y(g.ny() / 2), g.z(g.nz() / 2)).rho, 0.0);
  }
  EXPECT_EQ(cases::find("no-such-case"), nullptr);
}

TEST(CaseRegistry, CanonicalFamiliesArePresent) {
  for (const char* name :
       {"sod-x", "sod-y", "sod-z", "lax-x", "sedov", "taylor-green",
        "isentropic-vortex", "kelvin-helmholtz", "shock-bubble",
        "jet-single", "jet-three", "jet-33"}) {
    EXPECT_NE(cases::find(name), nullptr) << name;
  }
}

TEST(CaseGolden, Fp64BandsAndChecksumsHoldForEveryCase) {
  for (const auto& spec : cases::all_cases()) {
    SCOPED_TRACE(spec.name);
    const auto r = cases::run_case<Fp64>(spec, cases::golden_options(spec));
    EXPECT_EQ(r.steps, spec.golden_steps);
    check_golden(spec, r);
  }
}

/// Reduced-storage policies run the same scenarios with positivity intact
/// and diagnostics inside a widened band (storage rounding moves the
/// extrema but must not change the physics).  FP32 and FP16/32 use 2x;
/// BF16/32 keeps float's exponent range but carries only 8 significand
/// bits (vs binary16's 11), so its extrema wander further — 4x.
/// Each run is also pinned bitwise by its state_fnv and per-step dt_fnv,
/// like StateFingerprintsAreBitStable does at FP64; the 16-bit policies
/// run every conversion lane (state, Sigma, CFL) of the production kernels.
struct SweepGolden {
  const char* name;
  std::uint64_t state_fnv;
  std::uint64_t dt_fnv;
};

template <class Policy>
void check_precision_sweep(const SweepGolden& gold, double widen_f = 2.0) {
  SCOPED_TRACE(gold.name);
  const auto* spec = cases::find(gold.name);
  ASSERT_NE(spec, nullptr);
  const auto r = cases::run_case<Policy>(*spec, cases::golden_options(*spec));
  EXPECT_EQ(r.state_fnv, gold.state_fnv)
      << "state drifted: run produced 0x" << std::hex << r.state_fnv;
  EXPECT_EQ(r.dt_fnv, gold.dt_fnv)
      << "dt drifted: run produced 0x" << std::hex << r.dt_fnv;
  EXPECT_GT(r.diag.min_density, 0.0);
  EXPECT_TRUE(std::isfinite(r.diag.max_mach));
  EXPECT_TRUE(std::isfinite(r.totals_final.e));
  const auto widen = [widen_f](const cases::Band& b) {
    return cases::Band{b.lo / widen_f, b.hi * widen_f};
  };
  expect_in(widen(spec->golden.max_mach), r.diag.max_mach, "max_mach");
  expect_in(widen(spec->golden.min_density), r.diag.min_density,
            "min_density");
  expect_in(widen(spec->golden.max_density), r.diag.max_density,
            "max_density");
}

TEST(CaseGolden, Fp32SweepShockTubeAndTaylorGreen) {
  check_precision_sweep<Fp32>(
      {"sod-x", 0xdffe22ddc5c816f7ull, 0xc69676edbac21539ull});
  check_precision_sweep<Fp32>(
      {"taylor-green", 0xf1d574a8433c9e76ull, 0x6cbb2e43331d86d1ull});
  check_precision_sweep<Fp32>(
      {"sedov", 0xdf6dacc175de04baull, 0x671d9fc581b7efa4ull});
}

TEST(CaseGolden, Fp16x32SweepShockTubeAndTaylorGreen) {
  check_precision_sweep<Fp16x32>(
      {"sod-x", 0x89f59e9d8d12c8edull, 0x0925884ffa4b5949ull});
  check_precision_sweep<Fp16x32>(
      {"taylor-green", 0xc4cc37902dee0cadull, 0xb7af438781aa4d4bull});
  check_precision_sweep<Fp16x32>(
      {"sedov", 0xa1ec017962fcc6d5ull, 0xeca6afd5fcabf149ull});
}

TEST(CaseGolden, Bf16x32SweepShockTubeSedovAndJet) {
  using igr::common::Bf16x32;
  check_precision_sweep<Bf16x32>(
      {"sod-x", 0x09a828cbf716873dull, 0x552ada31bc3ba66aull}, 4.0);
  check_precision_sweep<Bf16x32>(
      {"sedov", 0x88b412add5dd4d95ull, 0x02e92935984410a6ull}, 4.0);
  check_precision_sweep<Bf16x32>(
      {"jet-single", 0xbc7cc342a2ab1262ull, 0x2f37f784846b7dafull}, 4.0);
}

TEST(CaseRegistry, RunnerRejectsWenoForIgrOnlyCases) {
  auto spec = *cases::find("sod-x");  // copy; flip the gate
  spec.supports_weno = false;
  auto opts = cases::golden_options(spec);
  opts.scheme = igr::app::SchemeKind::kBaselineWeno;
  EXPECT_THROW((cases::CaseRun<Fp64>(spec, opts)), std::invalid_argument);
  opts.scheme = igr::app::SchemeKind::kIgr;
  EXPECT_NO_THROW((cases::CaseRun<Fp64>(spec, opts)));
}

TEST(CaseGolden, WenoBaselineRunsShockTube) {
  const auto* spec = cases::find("sod-x");
  ASSERT_NE(spec, nullptr);
  auto opts = cases::golden_options(*spec);
  opts.scheme = igr::app::SchemeKind::kBaselineWeno;
  const auto r = cases::run_case<Fp64>(*spec, opts);
  EXPECT_GT(r.diag.min_density, 0.0);
  expect_in(spec->golden.max_mach, r.diag.max_mach, "max_mach");
  expect_in(spec->golden.min_pressure, r.diag.min_pressure, "min_pressure");
}

TEST(CaseConvergence, IsentropicVortexErrorDropsUnderRefinement) {
  const auto* spec = cases::find("isentropic-vortex");
  ASSERT_NE(spec, nullptr);
  cases::RunOptions coarse;
  coarse.n = 24;
  coarse.t_end = 0.5;
  cases::RunOptions fine = coarse;
  fine.n = 48;
  const auto rc = cases::run_case<Fp64>(*spec, coarse);
  const auto rf = cases::run_case<Fp64>(*spec, fine);
  ASSERT_GE(rc.l1_error, 0.0);
  ASSERT_GE(rf.l1_error, 0.0);
  EXPECT_LT(rf.l1_error, rc.l1_error);
  // Pre-asymptotic at these resolutions (alpha ~ h^2 perturbation); a
  // solid monotone drop is the regression contract, full 5th order is not.
  EXPECT_LT(rf.l1_error, 0.75 * rc.l1_error);
}

TEST(CaseDiagnostics, EnergyTotalsAgreeAndTaylorGreenEnstrophyIsAnalytic) {
  const auto* spec = cases::find("taylor-green");
  ASSERT_NE(spec, nullptr);
  const auto r = cases::run_case<Fp64>(*spec, cases::golden_options(*spec));
  // diagnostics() integrates E dv in its own loop; the runner's conserved
  // totals must agree (summation order differs by rounding only).
  EXPECT_NEAR(r.diag.total_energy, r.totals_final.e,
              1e-12 * std::abs(r.totals_final.e));
  EXPECT_NEAR(r.diag.total_mass, r.totals_final.rho,
              1e-12 * std::abs(r.totals_final.rho));
  // Initial enstrophy of the Taylor-Green field is 6*pi^3 ~ 186.04; the
  // second-order curl stencil at n = 24 resolves it to a few percent and 8
  // steps of this near-incompressible flow barely move it.
  const double analytic = 6.0 * std::pow(3.14159265358979323846, 3);
  EXPECT_NEAR(r.diag.enstrophy, analytic, 0.15 * analytic);
}

TEST(CaseDistributed, TaylorGreenDecomposedBitwiseEqualSerial) {
  const auto* spec = cases::find("taylor-green");
  ASSERT_NE(spec, nullptr);
  cases::RunOptions opts;
  opts.n = 12;
  opts.steps = 4;
  opts.jacobi_sweeps = true;  // decomposition-exact sweep flavor
  auto dist_opts = opts;
  dist_opts.ranks = {1, 2, 2};
  cases::CaseRun<Fp64> serial(*spec, opts);
  cases::CaseRun<Fp64> dist(*spec, dist_opts);
  for (int s = 0; s < 4; ++s) {
    const double dt_s = serial.step();
    const double dt_d = dist.step();
    ASSERT_EQ(dt_s, dt_d) << "step " << s;
  }
  const auto& qs = serial.sim().state();
  const auto& qd = dist.sim().state();
  for (int c = 0; c < kNumVars; ++c)
    for (int k = 0; k < 12; ++k)
      for (int j = 0; j < 12; ++j)
        for (int i = 0; i < 12; ++i)
          ASSERT_EQ(qs[c](i, j, k), qd[c](i, j, k))
              << "c=" << c << " @ " << i << "," << j << "," << k;
}

/// Interrupted-and-restarted == uninterrupted, bit for bit: the checkpoint
/// round-trips the state *and* Sigma (the warm start), and the restarted
/// step()'s dt rescan reproduces the solver's cached dt.
template <class Policy>
void check_restart_bitwise(const char* name) {
  const auto* spec = cases::find(name);
  ASSERT_NE(spec, nullptr);
  cases::RunOptions opts;
  opts.n = spec->golden_n;
  opts.steps = 1;  // stepping is driven manually below

  cases::CaseRun<Policy> straight(*spec, opts);
  for (int s = 0; s < 8; ++s) straight.step();

  cases::CaseRun<Policy> first(*spec, opts);
  for (int s = 0; s < 4; ++s) first.step();
  const auto path = (fs::temp_directory_path() /
                     (std::string("igr_case_restart_") + name + "_" +
                      std::to_string(sizeof(typename Policy::storage_t)) +
                      ".bin"))
                        .string();
  first.save_checkpoint(path);

  cases::CaseRun<Policy> resumed(*spec, opts);
  resumed.load_checkpoint(path);
  for (int s = 0; s < 4; ++s) {
    const double dt_a = first.step();
    const double dt_b = resumed.step();
    ASSERT_EQ(dt_a, dt_b) << "restarted dt diverged at step " << s;
  }
  fs::remove(path);
  fs::remove(path + ".sigma");

  const auto& qa = straight.sim().state();
  const auto& qb = resumed.sim().state();
  const auto& g = straight.sim().grid();
  ASSERT_EQ(straight.sim().time(), resumed.sim().time());
  for (int c = 0; c < kNumVars; ++c)
    for (int k = 0; k < g.nz(); ++k)
      for (int j = 0; j < g.ny(); ++j)
        for (int i = 0; i < g.nx(); ++i)
          ASSERT_EQ(static_cast<double>(qa[c](i, j, k)),
                    static_cast<double>(qb[c](i, j, k)))
              << "c=" << c << " @ " << i << "," << j << "," << k;
}

TEST(CaseCheckpoint, RestartContinuesBitwiseFp64) {
  check_restart_bitwise<Fp64>("sod-x");
  check_restart_bitwise<Fp64>("taylor-green");
}

TEST(CaseCheckpoint, RestartContinuesBitwiseFp16x32) {
  check_restart_bitwise<Fp16x32>("sod-x");
}

// --- Layout-agnostic restart + golden field fingerprints -----------------

/// A checkpoint saved from a decomposed run restarts on *any* rank layout
/// (serial included) and continues bitwise — state, Sigma warm start, and
/// every subsequent dt.  Jacobi sweeps make the sweep flavor itself
/// decomposition-exact, so the uninterrupted serial run is the single
/// reference for all layouts.
TEST(CaseCheckpoint, RestartIsLayoutAgnosticAndBitwise) {
  const auto* spec = cases::find("taylor-green");
  ASSERT_NE(spec, nullptr);
  cases::RunOptions opts;
  opts.n = 12;
  opts.steps = 1;  // stepping is driven manually below
  opts.jacobi_sweeps = true;

  cases::CaseRun<Fp64> straight(*spec, opts);
  std::vector<double> dts;
  for (int s = 0; s < 12; ++s) dts.push_back(straight.step());
  const std::uint64_t want_fnv = straight.result().state_fnv;

  // Save at step 6 from a 2x2x2-decomposed run (the writer gathers to one
  // layout-independent global file).
  auto save_opts = opts;
  save_opts.ranks = {2, 2, 2};
  cases::CaseRun<Fp64> saver(*spec, save_opts);
  for (int s = 0; s < 6; ++s)
    ASSERT_EQ(saver.step(), dts[static_cast<std::size_t>(s)]) << "step " << s;
  const auto path =
      (fs::temp_directory_path() / "igr_case_layout_restart.bin").string();
  saver.save_checkpoint(path);

  for (const std::array<int, 3> ranks :
       {std::array<int, 3>{1, 1, 1}, std::array<int, 3>{1, 2, 1}}) {
    SCOPED_TRACE("restart ranks " + std::to_string(ranks[0]) + "x" +
                 std::to_string(ranks[1]) + "x" + std::to_string(ranks[2]));
    auto restart_opts = opts;
    restart_opts.ranks = ranks;
    cases::CaseRun<Fp64> resumed(*spec, restart_opts);
    resumed.load_checkpoint(path);
    ASSERT_EQ(resumed.sim().time(), saver.sim().time());
    for (int s = 6; s < 12; ++s)
      ASSERT_EQ(resumed.step(), dts[static_cast<std::size_t>(s)])
          << "restarted dt diverged at step " << s;
    EXPECT_EQ(resumed.result().state_fnv, want_fnv);
    EXPECT_EQ(resumed.sim().time(), straight.sim().time());
  }
  fs::remove(path);
  fs::remove(path + ".sigma");
}

/// Golden FNV-1a fingerprints of the conserved state after each case's
/// golden run (golden_n, golden_steps, FP64, defaults otherwise), and of
/// the run's per-step dt sequence.  Any bit of any interior value or of any
/// dt changing changes these — the tightest regression net the suite has.
/// The FP-reproducibility flags the build pins (-ffp-contract=off, SLP
/// vectorization off) are what make them stable across rebuilds and rank
/// layouts.
///
/// Re-record after an *intentional* numerics change with
///   ./run_case --case all --smoke --json /tmp/cases.json
/// and copy each case's "state_fnv" and "dt_fnv".
TEST(CaseGolden, StateFingerprintsAreBitStable) {
  const struct {
    const char* name;
    std::uint64_t fnv;
    std::uint64_t dt_fnv;
  } kGolden[] = {
      {"sod-x", 0x1d91a79a50229f98ull,
       0x0a6caab339577c5aull},
      {"sod-y", 0xcaa225115c9c6e81ull,
       0x7d82b4712b84ddb9ull},
      {"sod-z", 0x64d99e1c63b9f210ull,
       0xa91f285bdc2fe220ull},
      {"lax-x", 0xbb1ad561d9e67602ull,
       0x1726113019a4f5ffull},
      {"lax-y", 0x9cef1fda93283a40ull,
       0x1726113019a4f5ffull},
      {"lax-z", 0x088ad276371eb754ull,
       0xa7021ba0782ff7cdull},
      {"sedov", 0x1f1bc47afe75ddf1ull,
       0x3f692961152a5835ull},
      {"shock-bubble", 0x886f2e5041819c48ull,
       0x74430e82c2113664ull},
      {"taylor-green", 0x406b98d0b3c81562ull,
       0xbe9552982658e5bbull},
      {"isentropic-vortex", 0x26285f28467a6fddull,
       0xf8e90ee2369ebb15ull},
      {"kelvin-helmholtz", 0xa5544ae0c4cad4c7ull,
       0x5d50c8888e4896fdull},
      {"jet-single", 0x709213cc98a6a1e8ull,
       0xfec462599a1a3186ull},
      {"jet-three", 0x69bd0b0b7f8f3232ull,
       0xde723861054a6226ull},
      {"jet-33", 0x885c6e9797502e1aull,
       0xdaf966e4206486efull},
  };
  // Every registered case must carry a fingerprint — adding a case without
  // recording one fails here, on purpose.
  EXPECT_EQ(std::size(kGolden), cases::all_cases().size());
  for (const auto& gold : kGolden) {
    SCOPED_TRACE(gold.name);
    const auto* spec = cases::find(gold.name);
    ASSERT_NE(spec, nullptr);
    const auto r = cases::run_case<Fp64>(*spec, cases::golden_options(*spec));
    EXPECT_EQ(r.state_fnv, gold.fnv)
        << "state drifted: run produced 0x" << std::hex << r.state_fnv
        << ", golden table has 0x" << gold.fnv;
    EXPECT_EQ(r.dt_fnv, gold.dt_fnv)
        << "dt drifted: run produced 0x" << std::hex << r.dt_fnv
        << ", golden table has 0x" << gold.dt_fnv;
  }
}

}  // namespace
