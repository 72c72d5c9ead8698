/// Fused-step equivalence: the single-domain solver's step (Sigma source
/// interleaved with the reciprocal-density refresh, whole-block relaxation
/// sweeps, k-block flux sweeps with the RK update and the next step's CFL
/// reduction trailing the flux front) must be *bitwise identical* to two
/// references.
///   - A 1x1x1 sim::DistributedIgr: dt, state and Sigma.  The driver calls
///     the same stage pieces with its own ghost fills (halo exchange and
///     physical faces, axis by axis, one Sigma phase per sweep), so the
///     solver's ghost fills must show every kernel the values the driver's
///     fills show it.
///   - A textbook SSP-RK3 step written here: stage registers owned by the
///     test, each RHS from the public compute_rhs into a caller-owned
///     compute-precision field, then the per-cell convex update.  It pins
///     the streamed flux/RK stage and its two-block RHS ring at every
///     storage precision.
/// Every adaptive dt is also checked against a dedicated fv::compute_dt
/// scan of the state and warm Sigma the step starts from, which the folded
/// reduction must reproduce.  Any divergence is a scheduling bug, not
/// roundoff.  It relies on the reproducibility flags pinned in
/// CMakeLists.txt.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "app/jet_config.hpp"
#include "common/precision.hpp"
#include "core/igr_solver3d.hpp"
#include "fv/cfl.hpp"
#include "fv/rk3.hpp"
#include "mesh/grid.hpp"
#include "sim/distributed_igr.hpp"

namespace {

using igr::common::Bf16x32;
using igr::common::Fp16x32;
using igr::common::Fp32;
using igr::common::Fp64;
using igr::common::kNumVars;
using igr::common::SolverConfig;
using igr::common::StateField3;
using igr::core::IgrSolver3D;
using igr::fv::BcSpec;
using igr::fv::ReconScheme;
using igr::mesh::Grid;
using igr::sim::DistributedIgr;

template <class S>
bool bits_equal(const S& a, const S& b) {
  return std::memcmp(&a, &b, sizeof(S)) == 0;
}

/// One workload, built twice: the fused single-domain solver and the
/// 1x1x1 decomposed driver, whose Sigma solve runs as whole-block phases,
/// over the same grid, config, BCs, and IC.
template <class Policy>
struct Pair {
  IgrSolver3D<Policy> fused;
  DistributedIgr<Policy> phased;

  Pair(const Grid& g, const SolverConfig& cfg, const BcSpec& bc,
       ReconScheme recon, const igr::core::PrimFn& ic)
      : fused(g, cfg, bc, recon), phased(g, 1, 1, 1, cfg, bc, recon) {
    fused.init(ic);
    phased.init(ic);
  }

  IgrSolver3D<Policy>& ref() { return phased.rank(0); }
};

/// The bench harness's Mach-10 jet at smoke size (outflow/inflow faces, so
/// every Sigma ghost face clamps).
template <class Policy>
Pair<Policy> make_jet(ReconScheme recon, bool gauss_seidel = true, int n = 12,
                      int nz = 18) {
  const auto jet = igr::app::single_engine();
  auto cfg = jet.solver_config();
  cfg.sigma_gauss_seidel = gauss_seidel;
  const double lz = static_cast<double>(nz) / n;
  const Grid grid(n, n, nz, {0.0, 1.0}, {0.0, 1.0}, {0.0, lz});
  return Pair<Policy>(grid, cfg, jet.make_bc(), recon,
                      jet.initial_condition(0.005));
}

/// All-periodic variant: wrapping Sigma ghosts on every face plus the
/// streamed flux/RK/dt folds.
template <class Policy>
Pair<Policy> make_periodic(ReconScheme recon, bool gauss_seidel = true,
                           int n = 12) {
  SolverConfig cfg;
  cfg.sigma_gauss_seidel = gauss_seidel;
  return Pair<Policy>(Grid::cube(n), cfg, BcSpec::all_periodic(), recon,
                      [](double x, double y, double z) {
                        igr::common::Prim<double> w;
                        w.rho = 1.0 + 0.3 * std::sin(2 * M_PI * x) *
                                          std::cos(2 * M_PI * y);
                        w.u = 0.4 * std::sin(2 * M_PI * y);
                        w.v = -0.2 * std::cos(2 * M_PI * z);
                        w.w = 0.1 * std::sin(2 * M_PI * (x + z));
                        w.p = 1.0 + 0.2 * std::cos(2 * M_PI * x);
                        return w;
                      });
}

template <class S>
void expect_field_equal(const igr::common::Field3<S>& a,
                        const igr::common::Field3<S>& b, const char* what) {
  for (int k = 0; k < a.nz(); ++k)
    for (int j = 0; j < a.ny(); ++j)
      for (int i = 0; i < a.nx(); ++i)
        ASSERT_TRUE(bits_equal(a(i, j, k), b(i, j, k)))
            << what << " at (" << i << "," << j << "," << k << ")";
}

template <class S>
void expect_state_equal(const igr::common::StateField3<S>& a,
                        const igr::common::StateField3<S>& b,
                        const char* what) {
  for (int c = 0; c < kNumVars; ++c) {
    SCOPED_TRACE("var " + std::to_string(c));
    expect_field_equal(a[c], b[c], what);
  }
}

/// The CFL dt a dedicated scan of the solver's state and warm Sigma gives.
template <class Policy>
double scan_dt(const IgrSolver3D<Policy>& s) {
  return igr::fv::compute_dt(s.state(), s.grid(), s.eos(), s.config(),
                             &s.sigma());
}

template <class Policy>
void expect_same_step(Pair<Policy>& p) {
  expect_state_equal(p.fused.state(), p.ref().state(), "state");
  expect_field_equal(p.fused.sigma(), p.ref().sigma(), "sigma");
}

/// Three adaptive steps: the first dt comes from a fresh scan, the later
/// ones from the reduction folded into the previous step's final RK stage.
/// Both must equal the test's own scan on each side.
template <class Policy>
void expect_adaptive_steps_equal(Pair<Policy>& p) {
  for (int s = 0; s < 3; ++s) {
    const double scan = scan_dt(p.fused);
    ASSERT_EQ(scan_dt(p.ref()), scan) << "step " << s;
    ASSERT_EQ(p.fused.step(), scan) << "fused step " << s;
    ASSERT_EQ(p.phased.step(), scan) << "decomposed step " << s;
  }
  expect_same_step(p);
}

/// One textbook SSP-RK3 step of `s` at `dt`: the stage register is owned
/// here, every RHS comes from the public compute_rhs into a caller-owned
/// field, and each stage applies q_s = a*q^n + b*(q_s + dt*L(q_s)) per
/// cell at compute precision, rounded to storage once per stage.
template <class Policy>
void reference_step(IgrSolver3D<Policy>& s, double dt) {
  using S = typename Policy::storage_t;
  using C = typename Policy::compute_t;
  const auto& g = s.grid();
  const StateField3<S> qn = s.state();
  StateField3<S> qs = qn;
  StateField3<C> rhs(g.nx(), g.ny(), g.nz(), 0);
  const C dtc = static_cast<C>(dt);
  for (const auto& st : igr::fv::kRk3Stages) {
    s.compute_rhs(qs, rhs);
    const C a = static_cast<C>(st.a);
    const C b = static_cast<C>(st.b);
    for (int c = 0; c < kNumVars; ++c)
      for (int k = 0; k < g.nz(); ++k)
        for (int j = 0; j < g.ny(); ++j)
          for (int i = 0; i < g.nx(); ++i) {
            const C q0 = static_cast<C>(qn[c](i, j, k));
            const C q1 = static_cast<C>(qs[c](i, j, k));
            const C r = rhs[c](i, j, k);
            qs[c](i, j, k) = static_cast<S>(a * q0 + b * (q1 + dtc * r));
          }
  }
  s.state() = qs;
  s.set_time(s.time() + dt);
  s.invalidate_dt_cache();
}

/// The fused step against reference_step on a twin solver: three adaptive
/// steps, each dt checked against the test's scan, then state and Sigma.
template <class Policy>
void expect_reference_steps_equal(int nz) {
  const auto jet = igr::app::single_engine();
  const auto cfg = jet.solver_config();
  const Grid grid(12, 12, nz, {0.0, 1.0}, {0.0, 1.0},
                  {0.0, static_cast<double>(nz) / 12});
  IgrSolver3D<Policy> fused(grid, cfg, jet.make_bc());
  IgrSolver3D<Policy> ref(grid, cfg, jet.make_bc());
  fused.init(jet.initial_condition(0.005));
  ref.init(jet.initial_condition(0.005));
  for (int s = 0; s < 3; ++s) {
    const double scan = scan_dt(fused);
    ASSERT_EQ(fused.step(), scan) << "step " << s;
    reference_step(ref, scan);
    expect_state_equal(fused.state(), ref.state(), "state");
    expect_field_equal(fused.sigma(), ref.sigma(), "sigma");
  }
}

const ReconScheme kRecons[] = {ReconScheme::kFirst, ReconScheme::kThird,
                               ReconScheme::kFifth};

template <class Policy>
void run_jet_case(bool gauss_seidel) {
  for (auto recon : kRecons) {
    SCOPED_TRACE("recon " + std::to_string(static_cast<int>(recon)));
    auto p = make_jet<Policy>(recon, gauss_seidel);
    expect_adaptive_steps_equal(p);
  }
}

template <class Policy>
void run_periodic_case(bool gauss_seidel) {
  for (auto recon : kRecons) {
    SCOPED_TRACE("recon " + std::to_string(static_cast<int>(recon)));
    auto p = make_periodic<Policy>(recon, gauss_seidel);
    expect_adaptive_steps_equal(p);
  }
}

TEST(FusedRhs, AdaptiveJetStepsBitwiseFp64) { run_jet_case<Fp64>(true); }
TEST(FusedRhs, AdaptiveJetStepsBitwiseFp32) { run_jet_case<Fp32>(true); }
TEST(FusedRhs, AdaptiveJetStepsBitwiseFp16x32) {
  run_jet_case<Fp16x32>(true);
}
TEST(FusedRhs, AdaptiveJetStepsBitwiseBf16x32) {
  run_jet_case<Bf16x32>(true);
}

// Jacobi swaps the Sigma buffers after every sweep; an odd sweep count
// must land the same bits in the same field object on both sides.
TEST(FusedRhs, AdaptiveJetStepsBitwiseJacobiFp64) {
  run_jet_case<Fp64>(false);
}
TEST(FusedRhs, AdaptiveJetStepsBitwiseJacobiFp32) {
  run_jet_case<Fp32>(false);
}
TEST(FusedRhs, AdaptiveJetStepsBitwiseJacobiFp16x32) {
  run_jet_case<Fp16x32>(false);
}
TEST(FusedRhs, AdaptiveJetStepsBitwiseJacobiBf16x32) {
  run_jet_case<Bf16x32>(false);
}

// All-periodic BCs: Sigma ghosts wrap on every face, including z, while
// the source, fluxes, RK and the dt fold stream as on the jet; all must
// stay bitwise.
TEST(FusedRhs, PeriodicStepsBitwiseFp64) {
  run_periodic_case<Fp64>(true);
}
TEST(FusedRhs, PeriodicStepsBitwiseFp32) {
  run_periodic_case<Fp32>(true);
}
TEST(FusedRhs, PeriodicStepsBitwiseFp16x32) {
  run_periodic_case<Fp16x32>(true);
}
TEST(FusedRhs, PeriodicStepsBitwiseBf16x32) {
  run_periodic_case<Bf16x32>(true);
}
TEST(FusedRhs, PeriodicStepsBitwiseJacobiFp64) {
  run_periodic_case<Fp64>(false);
}
TEST(FusedRhs, PeriodicStepsBitwiseJacobiFp16x32) {
  run_periodic_case<Fp16x32>(false);
}
TEST(FusedRhs, PeriodicStepsBitwiseJacobiBf16x32) {
  run_periodic_case<Bf16x32>(false);
}

// The k-block seams of the streamed flux stage re-evaluate shared faces,
// and the trailing RK update commits one block behind the flux front from
// the other slot of the two-block RHS ring.  With 8-plane blocks the grid
// heights give one partial block (nz = 4), one exact block (8), and full
// blocks followed by a ragged last block of one plane (9, 25) or two (18);
// 18 and 25 reuse each ring slot.  The 16-bit policies pin that the ring
// keeps the RHS at compute precision exactly as the reference's
// caller-owned field does.
template <class Policy>
void run_flux_block_seams() {
  for (int nz : {4, 8, 9, 18, 25}) {
    SCOPED_TRACE("nz " + std::to_string(nz));
    auto p = make_jet<Policy>(ReconScheme::kFifth, true, 12, nz);
    expect_adaptive_steps_equal(p);
    expect_reference_steps_equal<Policy>(nz);
  }
}

TEST(FusedRhs, FluxBlockSeamsAreBitwiseFree) {
  run_flux_block_seams<Fp64>();
}
TEST(FusedRhs, FluxBlockSeamsAreBitwiseFreeFp16x32) {
  run_flux_block_seams<Fp16x32>();
}
TEST(FusedRhs, FluxBlockSeamsAreBitwiseFreeBf16x32) {
  run_flux_block_seams<Bf16x32>();
}

TEST(FusedRhs, StepFixedThenAdaptiveUsesFreshDtCache) {
  // step_fixed refreshes the folded CFL cache too, so a mixed
  // step_fixed/step sequence sees the dt a fresh scan would compute.
  auto p = make_jet<Fp64>(ReconScheme::kFifth);
  p.fused.step_fixed(1e-4);
  p.phased.step_fixed(1e-4);
  const double scan = scan_dt(p.fused);
  ASSERT_EQ(p.fused.step(), scan);
  ASSERT_EQ(p.phased.step(), scan);
  expect_same_step(p);
}

}  // namespace
