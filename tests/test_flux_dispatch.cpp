/// Golden fingerprints of the flux RHS: compute_fluxes dispatches the
/// reconstruction scheme once, at compile time, into the streaming flux
/// kernel.  Each test pins the FNV-1a fingerprint of the RHS it produces
/// for one scheme/precision/physics combination, so any bit of any face
/// flux changing fails here.  The goldens were recorded while a runtime
/// per-face dispatch path still existed beside it and agreed bitwise.
///
/// Re-record after an *intentional* numerics change by copying the value
/// the failing assertion prints.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/hash.hpp"
#include "common/precision.hpp"
#include "core/igr_solver3d.hpp"
#include "fv/reconstruct.hpp"

namespace {

using igr::common::Fp32;
using igr::common::Fp64;
using igr::common::Prim;
using igr::common::SolverConfig;
using igr::common::StateField3;
using igr::core::IgrSolver3D;
using igr::fv::BcSpec;
using igr::fv::ReconScheme;
using igr::mesh::Grid;

/// A smooth 3-D vortex: swirl about the z axis with axial shear and a
/// density/pressure well — every flux term (all three sweeps, all five
/// variables) is exercised with nontrivial values.
Prim<double> vortex_ic(double x, double y, double z) {
  const double rx = x - 0.5, ry = y - 0.5;
  const double r2 = rx * rx + ry * ry;
  const double swirl = 0.8 * std::exp(-10.0 * r2);
  Prim<double> w;
  w.rho = 1.0 + 0.3 * std::exp(-8.0 * r2) * std::cos(2 * M_PI * z);
  w.u = -swirl * ry + 0.05 * std::sin(2 * M_PI * z);
  w.v = swirl * rx;
  w.w = 0.2 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y);
  w.p = 1.0 - 0.2 * std::exp(-10.0 * r2);
  return w;
}

/// The fluxes of the solver's current state, evaluated into a fresh RHS
/// with ghosts and Sigma prepared exactly as a real RHS evaluation would.
template <class Policy>
StateField3<typename Policy::storage_t> flux_rhs(IgrSolver3D<Policy>& s) {
  s.begin_step();
  auto& stage = s.stage_field();
  s.compute_rhs(stage, s.rhs_field());
  const auto& g = s.grid();
  StateField3<typename Policy::storage_t> rhs(g.nx(), g.ny(), g.nz(), 3);
  s.compute_fluxes(stage, rhs);
  return rhs;
}

template <class S>
void expect_fnv(const StateField3<S>& rhs, std::uint64_t golden) {
  const std::uint64_t fnv = igr::common::state_fnv1a(rhs);
  EXPECT_EQ(fnv, golden) << "flux rhs drifted: produced 0x" << std::hex
                         << fnv;
}

template <class Policy>
void expect_rhs_golden(ReconScheme recon, SolverConfig cfg,
                       std::uint64_t golden) {
  IgrSolver3D<Policy> s(Grid::cube(12), cfg, BcSpec::all_periodic(), recon);
  s.init(vortex_ic);
  // March a few fixed steps so Sigma is developed and the state is not a
  // trivial function of the initial condition.
  for (int i = 0; i < 3; ++i) s.step_fixed(1e-3);
  expect_fnv(flux_rhs(s), golden);
}

SolverConfig igr_cfg() {
  SolverConfig cfg;
  cfg.alpha_factor = 5.0;
  cfg.sigma_sweeps = 5;
  return cfg;
}

TEST(FluxDispatch, RhsGoldenRecon1Fp64) {
  expect_rhs_golden<Fp64>(ReconScheme::kFirst, igr_cfg(),
                          0xe791964d5d087a17ull);
}

TEST(FluxDispatch, RhsGoldenRecon3Fp64) {
  expect_rhs_golden<Fp64>(ReconScheme::kThird, igr_cfg(),
                          0xec16b8f9ab980ed1ull);
}

TEST(FluxDispatch, RhsGoldenRecon5Fp64) {
  expect_rhs_golden<Fp64>(ReconScheme::kFifth, igr_cfg(),
                          0x4591a538f3e81f0aull);
}

TEST(FluxDispatch, RhsGoldenWeno5Fp64) {
  expect_rhs_golden<Fp64>(ReconScheme::kWeno5, igr_cfg(),
                          0x07f3f3f85a0b2aafull);
}

TEST(FluxDispatch, RhsGoldenRecon5Fp32) {
  expect_rhs_golden<Fp32>(ReconScheme::kFifth, igr_cfg(),
                          0x849c9842af0b9076ull);
}

TEST(FluxDispatch, RhsGoldenViscousPath) {
  auto cfg = igr_cfg();
  cfg.mu = 0.02;
  cfg.zeta = 0.01;
  expect_rhs_golden<Fp64>(ReconScheme::kFifth, cfg,
                          0xada0eba0caaa2a95ull);
}

TEST(FluxDispatch, RhsGoldenViscousWithoutSigma) {
  // Sigma disabled + viscosity on: compute_fluxes must refresh the
  // reciprocal-density field itself (nobody built the Sigma source).
  auto cfg = igr_cfg();
  cfg.alpha_factor = 0.0;
  cfg.sigma_sweeps = 0;
  cfg.mu = 0.02;
  expect_rhs_golden<Fp64>(ReconScheme::kFifth, cfg,
                          0x228eac10a3c247f6ull);
}

TEST(FluxDispatch, RhsGoldenWithFloorsOnShockTube) {
  // A hard start-up discontinuity exercises the nonphysical-reconstruction
  // fallback and the configured floors.
  auto cfg = igr_cfg();
  cfg.density_floor = 1e-8;
  cfg.pressure_floor = 1e-8;
  IgrSolver3D<Fp64> s(Grid::cube(12), cfg, BcSpec::all_outflow());
  s.init([](double x, double, double) {
    Prim<double> w;
    w.rho = x < 0.5 ? 1.0 : 0.01;
    w.p = x < 0.5 ? 10.0 : 0.01;
    return w;
  });
  expect_fnv(flux_rhs(s), 0x3eda21062a865525ull);
}

TEST(FluxDispatch, SchemesActuallyDiffer) {
  // Guard against a dispatcher that quietly routes every scheme to the same
  // instantiation: first- and fifth-order fluxes must differ on a smooth
  // nonuniform state.
  const int n = 12;
  auto run = [&](ReconScheme r) {
    IgrSolver3D<Fp64> s(Grid::cube(n), igr_cfg(), BcSpec::all_periodic(), r);
    s.init(vortex_ic);
    return flux_rhs(s);
  };
  const auto a = run(ReconScheme::kFirst);
  const auto b = run(ReconScheme::kFifth);
  double max_diff = 0.0;
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        max_diff = std::max(max_diff,
                            std::abs(a[0](i, j, k) - b[0](i, j, k)));
  EXPECT_GT(max_diff, 1e-8);
}

}  // namespace
