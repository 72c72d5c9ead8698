/// Solver-level mixed-precision regression: golden fingerprints of the
/// FP16/32 Mach-10 jet at n=12.  Every FP16/32 hot path (inv_rho refresh,
/// Sigma source and sweeps, streaming flux, RK update, CFL scan) reads and
/// writes binary16 storage through the batched conversion lanes, which are
/// bitwise-identical to the per-element converters on all 65536 patterns
/// (tests/test_half_batch.cpp).  The fingerprints pin the state, Sigma and
/// dt bits those paths produce; they were recorded while a per-element
/// reference path still existed beside the lanes and agreed bitwise.
///
/// Re-record after an *intentional* numerics change by copying the value
/// the failing assertion prints.
///
/// Fingerprints detect change, not wrongness, so two error oracles ride
/// along: the Mach-10 jet at production resolution must stay finite (its
/// |dE/dt| exceeds binary16's range, which only a compute-precision RHS
/// survives), and the 16-bit policies' deviation from FP64 at the Fig. 5
/// precision-study configuration must not grow.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "app/jet_config.hpp"
#include "app/simulation.hpp"
#include "cases/runner.hpp"
#include "common/hash.hpp"
#include "common/precision.hpp"
#include "core/igr_solver3d.hpp"
#include "fv/cfl.hpp"
#include "mesh/grid.hpp"

namespace {

using igr::common::Bf16x32;
using igr::common::Fp16x32;
using igr::common::Fp64;
using igr::core::IgrSolver3D;
using igr::mesh::Grid;

/// The bench harness's Mach-10 single-jet workload at smoke size.
IgrSolver3D<Fp16x32> make_jet_solver() {
  const int n = 12;
  const auto jet = igr::app::single_engine();
  const Grid grid(n, n, n + n / 2, {0.0, 1.0}, {0.0, 1.0}, {0.0, 1.5});
  IgrSolver3D<Fp16x32> s(grid, jet.solver_config(), jet.make_bc());
  s.init(jet.initial_condition(0.005));
  return s;
}

/// FNV-1a over the interior of one field, double-cast, in (k, j, i) order —
/// the per-component encoding of common::state_fnv1a.
template <class T>
std::uint64_t field_fnv(const igr::common::Field3<T>& f) {
  igr::common::Fnv1a64 h;
  for (int k = 0; k < f.nz(); ++k)
    for (int j = 0; j < f.ny(); ++j)
      for (int i = 0; i < f.nx(); ++i) {
        const double v = static_cast<double>(f(i, j, k));
        h.update(&v, sizeof v);
      }
  return h.value();
}

void expect_fingerprints(const IgrSolver3D<Fp16x32>& s,
                         std::uint64_t state_golden,
                         std::uint64_t sigma_golden) {
  const std::uint64_t state = igr::common::state_fnv1a(s.state());
  const std::uint64_t sigma = field_fnv(s.sigma());
  EXPECT_EQ(state, state_golden)
      << "state drifted: produced 0x" << std::hex << state;
  EXPECT_EQ(sigma, sigma_golden)
      << "sigma drifted: produced 0x" << std::hex << sigma;
}

void expect_dt_bits(double dt, std::uint64_t golden) {
  const auto bits = std::bit_cast<std::uint64_t>(dt);
  EXPECT_EQ(bits, golden) << "dt drifted: produced 0x" << std::hex << bits
                          << " (" << dt << ")";
}

TEST(MixedPrecisionStep, FixedRk3StepsMatchGolden) {
  auto s = make_jet_solver();
  for (int n = 0; n < 2; ++n) s.step_fixed(1e-4);

  // The jet inflow must actually have stirred the state — otherwise the
  // fingerprint would pin an all-ambient field.
  bool perturbed = false;
  const auto& g = s.grid();
  for (int k = 0; k < g.nz() && !perturbed; ++k)
    for (int j = 0; j < g.ny() && !perturbed; ++j)
      for (int i = 0; i < g.nx() && !perturbed; ++i)
        perturbed = std::abs(float(s.state()[3](i, j, k))) > 1e-6f;
  ASSERT_TRUE(perturbed);

  expect_fingerprints(s, 0x87a630033ff8e7fdull, 0x7a6b5892d73d562bull);
}

TEST(MixedPrecisionStep, CflDtMatchesGolden) {
  auto s = make_jet_solver();
  s.step_fixed(2e-4);
  expect_dt_bits(igr::fv::compute_dt(s.state(), s.grid(), s.eos(),
                                     s.config(), &s.sigma()),
                 0x3f5398f2b2e88deeull);
}

TEST(MixedPrecisionStep, AdaptiveStepMatchesGolden) {
  // The full production entry point (CFL-limited step()) composes the CFL
  // scan, Sigma solve, flux sweeps, and RK update; one adaptive step is
  // pinned end to end, dt included.
  auto s = make_jet_solver();
  expect_dt_bits(s.step(), 0x3f7cb206bd28e156ull);
  expect_fingerprints(s, 0x1f6befc958663ca6ull, 0xcdbe9d6a5e0ea555ull);
}

TEST(MixedPrecisionStep, JetAtProductionResolutionStaysFinite) {
  // At n=64 the jet's energy RHS reaches ~7e4, past binary16's 65504: a
  // RHS rounded to storage precision overflows to Inf within two steps and
  // the state goes NaN.  The RHS must stay at compute precision.
  const auto* spec = igr::cases::find("jet-single");
  ASSERT_NE(spec, nullptr);
  igr::cases::RunOptions opts;
  opts.n = 64;
  opts.steps = 10;
  igr::cases::CaseRun<Fp16x32> run(*spec, opts);
  const auto r = run.run();
  EXPECT_EQ(r.steps, 10);
  for (int c = 0; c < igr::common::kNumVars; ++c)
    EXPECT_TRUE(std::isfinite(r.totals_final[c])) << "total " << c;
  const auto h = run.sim().health();
  EXPECT_TRUE(h.healthy()) << h.describe();
}

/// The Fig. 5 precision study (bench/fig5_precision.cpp): the three-engine
/// row on 24x24x32 cells, 24 adaptive steps from the same seeded state.
template <class Policy>
std::vector<double> fig5_density() {
  constexpr int kNx = 24, kNy = 24, kNz = 32;
  const auto jet = igr::app::three_engine_row();
  typename igr::app::Simulation<Policy>::Params params;
  params.grid = Grid(kNx, kNy, kNz, {0, 1}, {0, 1}, {0, 1.4});
  params.cfg = jet.solver_config();
  params.bc = jet.make_bc();
  igr::app::Simulation<Policy> sim(params);
  sim.init(jet.initial_condition(0.01));
  sim.run_steps(24);
  std::vector<double> rho;
  const auto& q = sim.state();
  for (int k = 0; k < kNz; ++k)
    for (int j = 0; j < kNy; ++j)
      for (int i = 0; i < kNx; ++i)
        rho.push_back(static_cast<double>(q[0](i, j, k)));
  return rho;
}

double rel_l2(const std::vector<double>& a, const std::vector<double>& b) {
  double num = 0, den = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += b[i] * b[i];
  }
  return std::sqrt(num / den);
}

TEST(MixedPrecisionStep, Fig5DeviationFromFp64DoesNotGrow) {
  // Relative L2 density deviation from FP64, bounded by what the solver
  // gave while it still rounded the RHS to 16 bits (FP16/32 1.9406e-3,
  // BF16/32 7.0307e-3) plus 1%.  Rounding the *state* to 16 bits on every
  // store dominates this deviation; the RHS rounding was second order
  // (removing it moved the two values by +0.05% and -0.03%), so the margin
  // only absorbs that reshuffle — a real loss of accuracy shows.
  const auto ref = fig5_density<Fp64>();
  const double d16 = rel_l2(fig5_density<Fp16x32>(), ref);
  const double dbf = rel_l2(fig5_density<Bf16x32>(), ref);
  std::printf("fig5 rel L2 vs FP64: FP16/32 %.4e  BF16/32 %.4e\n", d16, dbf);
  EXPECT_LE(d16, 1.9406e-3 * 1.01) << "FP16/32 deviation grew";
  EXPECT_LE(dbf, 7.0307e-3 * 1.01) << "BF16/32 deviation grew";
}

}  // namespace
