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

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "app/jet_config.hpp"
#include "common/hash.hpp"
#include "common/precision.hpp"
#include "core/igr_solver3d.hpp"
#include "fv/cfl.hpp"
#include "mesh/grid.hpp"

namespace {

using igr::common::Fp16x32;
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

  expect_fingerprints(s, 0x3289e8f96d97cb2bull, 0x7a6b5892d73d562bull);
}

TEST(MixedPrecisionStep, CflDtMatchesGolden) {
  auto s = make_jet_solver();
  s.step_fixed(2e-4);
  expect_dt_bits(igr::fv::compute_dt(s.state(), s.grid(), s.eos(),
                                     s.config(), &s.sigma()),
                 0x3f5398f662f4a761ull);
}

TEST(MixedPrecisionStep, AdaptiveStepMatchesGolden) {
  // The full production entry point (CFL-limited step()) composes the CFL
  // scan, Sigma solve, flux sweeps, and RK update; one adaptive step is
  // pinned end to end, dt included.
  auto s = make_jet_solver();
  expect_dt_bits(s.step(), 0x3f7cb206bd28e156ull);
  expect_fingerprints(s, 0xd4a633a3c80e0749ull, 0x0cee1bf70021519cull);
}

}  // namespace
