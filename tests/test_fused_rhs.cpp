/// Fused-pipeline equivalence: the single-domain solver's plane-streaming
/// step (interleaved Sigma source, pipelined relaxation wavefront, k-block
/// flux sweeps with the RK update and the next step's CFL reduction
/// trailing the flux front) must be *bitwise identical* — dt, state, Sigma,
/// and the RHS of the resulting state — to the phased per-phase schedule.
/// That schedule lives in exactly one place, the decomposed driver: a
/// 1x1x1 sim::DistributedIgr runs every RHS phase as a full-block pass
/// (ghost fill, Sigma source, one relaxation sweep per phase, z-split flux
/// sweeps, RK update) and scans dt at the top of every step.  Both keep the
/// RHS at compute precision — the fused step in a two-block ring, the
/// driver in a caller-owned field per rank — so they round it identically
/// at every storage precision.  Every slot of the fused wavefront reads
/// exactly the values those passes show it (see the pipeline notes in
/// igr_solver3d.cpp); any divergence is a scheduling bug, not roundoff.  It
/// relies on the reproducibility flags pinned in CMakeLists.txt.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "app/jet_config.hpp"
#include "common/precision.hpp"
#include "core/igr_solver3d.hpp"
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
/// phased 1x1x1 decomposed driver over the same grid, config, BCs, and IC.
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
/// the Sigma boundary handling is Neumann and the sweep wavefront engages).
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

/// All-periodic variant: exercises the periodic-Sigma fallback (phased
/// sweeps inside the fused schedule) plus the streamed flux/RK/dt folds.
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

/// State and Sigma, then the RHS each schedule evaluates for that state:
/// the fused pipeline (wavefront Sigma solve, k-blocked fluxes) into a
/// caller-owned field, the driver's per-phase evaluation into its rank
/// field.  The RHS evaluation advances the warm-start Sigma on both sides,
/// which must still agree afterwards.  Ends the comparison: the fused dt
/// cache is stale once Sigma moved, so no step may follow.
template <class Policy>
void expect_same_step(Pair<Policy>& p) {
  expect_state_equal(p.fused.state(), p.ref().state(), "state");
  expect_field_equal(p.fused.sigma(), p.ref().sigma(), "sigma");
  const auto& g = p.fused.grid();
  StateField3<typename Policy::compute_t> rhs(g.nx(), g.ny(), g.nz(), 0);
  p.fused.compute_rhs(p.fused.state(), rhs);
  p.phased.compute_rhs();
  expect_state_equal(rhs, p.phased.rhs(0), "rhs");
  expect_field_equal(p.fused.sigma(), p.ref().sigma(), "post-rhs sigma");
}

/// Three adaptive steps: the first dt comes from the dedicated CFL scan on
/// both sides; the later fused dts come from the reduction folded into the
/// previous step's final RK stage, the phased ones from a fresh scan.
template <class Policy>
void expect_adaptive_steps_equal(Pair<Policy>& p) {
  for (int s = 0; s < 3; ++s) {
    const double dt_f = p.fused.step();
    const double dt_p = p.phased.step();
    ASSERT_EQ(dt_f, dt_p) << "step " << s;
  }
  expect_same_step(p);
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

// The Jacobi wavefront alternates buffers per plane slot instead of
// swapping whole fields per sweep; the final swap must land the same bits
// in the same field object.
TEST(FusedRhs, AdaptiveJetStepsBitwiseJacobiFp64) {
  run_jet_case<Fp64>(false);
}
TEST(FusedRhs, AdaptiveJetStepsBitwiseJacobiFp32) {
  run_jet_case<Fp32>(false);
}
TEST(FusedRhs, AdaptiveJetStepsBitwiseJacobiFp16x32) {
  run_jet_case<Fp16x32>(false);
}

// All-periodic BCs: the sweep wavefront cannot cross the z wrap, so the
// fused schedule keeps phased sweeps — but still streams source, fluxes,
// RK, and the dt fold, which must stay bitwise.
TEST(FusedRhs, PeriodicFallbackStepsBitwiseFp64) {
  run_periodic_case<Fp64>(true);
}
TEST(FusedRhs, PeriodicFallbackStepsBitwiseFp32) {
  run_periodic_case<Fp32>(true);
}
TEST(FusedRhs, PeriodicFallbackStepsBitwiseFp16x32) {
  run_periodic_case<Fp16x32>(true);
}
TEST(FusedRhs, PeriodicFallbackStepsBitwiseJacobiFp64) {
  run_periodic_case<Fp64>(false);
}
TEST(FusedRhs, PeriodicFallbackStepsBitwiseJacobiFp16x32) {
  run_periodic_case<Fp16x32>(false);
}

// The k-block seams of the streamed flux stage re-evaluate shared faces,
// and the trailing RK update commits one block behind the flux front from
// the other slot of the two-block RHS ring.  With 8-plane blocks the grid
// heights give one partial block (nz = 4), one exact block (8), and full
// blocks followed by a ragged last block of one plane (9, 25) or two (18);
// 18 and 25 reuse each ring slot.  The 16-bit policies pin that the ring
// keeps the RHS at compute precision exactly as the driver's field does.
template <class Policy>
void run_flux_block_seams() {
  for (int nz : {4, 8, 9, 18, 25}) {
    SCOPED_TRACE("nz " + std::to_string(nz));
    auto p = make_jet<Policy>(ReconScheme::kFifth, true, 12, nz);
    expect_adaptive_steps_equal(p);
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

TEST(FusedRhs, RegionRestrictedFluxesMatchWholeBlock) {
  // The interior/boundary split DistributedIgr overlaps with halo traffic
  // must union to the whole-block flux sweep bitwise, along every axis.
  // Each split writes a fresh field, so a cell neither half covers shows.
  for (auto recon : kRecons) {
    auto p = make_jet<Fp64>(recon);
    auto& s = p.fused;
    s.step_fixed(1e-4);
    s.begin_step();
    const auto& g = s.grid();
    StateField3<double> whole(g.nx(), g.ny(), g.nz(), 0);
    s.compute_rhs(s.stage_field(), whole);
    for (int axis = 0; axis < 3; ++axis) {
      SCOPED_TRACE("axis " + std::to_string(axis));
      StateField3<double> split(g.nx(), g.ny(), g.nz(), 0);
      s.compute_fluxes_interior(s.stage_field(), split, axis);
      s.compute_fluxes_boundary(s.stage_field(), split, axis);
      expect_state_equal(whole, split, "split rhs");
    }
  }
}

TEST(FusedRhs, StepFixedThenAdaptiveUsesFreshDtCache) {
  // step_fixed refreshes the folded CFL cache too, so a mixed
  // step_fixed/step sequence sees the dt a fresh scan would compute.
  auto p = make_jet<Fp64>(ReconScheme::kFifth);
  p.fused.step_fixed(1e-4);
  p.phased.step_fixed(1e-4);
  ASSERT_EQ(p.fused.step(), p.phased.step());
  expect_same_step(p);
}

}  // namespace
