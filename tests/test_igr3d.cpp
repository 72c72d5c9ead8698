/// Tests for the 3-D IGR solver — the paper's primary contribution.

#include <gtest/gtest.h>

#include <cmath>

#include "common/precision.hpp"
#include "core/igr_solver3d.hpp"
#include "fv/exact_riemann.hpp"

namespace {

using igr::common::Fp16x32;
using igr::common::Fp32;
using igr::common::Fp64;
using igr::common::kNumVars;
using igr::common::Prim;
using igr::common::SolverConfig;
using igr::core::IgrSolver3D;
using igr::fv::BcSpec;
using igr::mesh::Grid;

SolverConfig default_cfg() {
  SolverConfig cfg;
  cfg.alpha_factor = 5.0;
  cfg.sigma_sweeps = 5;
  return cfg;
}

TEST(Igr3D, ConstantStateIsExactlySteady) {
  IgrSolver3D<Fp64> s(Grid::cube(12), default_cfg(), BcSpec::all_periodic());
  s.init([](double, double, double) {
    return Prim<double>{1.3, 0.2, -0.4, 0.6, 0.9};
  });
  for (int i = 0; i < 5; ++i) s.step();
  const auto& q = s.state();
  for (int k = 0; k < 12; ++k)
    for (int j = 0; j < 12; ++j)
      for (int i = 0; i < 12; ++i) {
        EXPECT_NEAR(q[0](i, j, k), 1.3, 1e-13);
      }
}

TEST(Igr3D, PeriodicConservation) {
  IgrSolver3D<Fp64> s(Grid::cube(16), default_cfg(), BcSpec::all_periodic());
  s.init([](double x, double y, double z) {
    Prim<double> w;
    w.rho = 1.0 + 0.3 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y);
    w.u = 0.4 * std::sin(2 * M_PI * z);
    w.v = -0.2;
    w.w = 0.1 * std::cos(2 * M_PI * x);
    w.p = 1.0 + 0.2 * std::cos(2 * M_PI * z);
    return w;
  });
  const auto before = s.conserved_totals();
  for (int i = 0; i < 10; ++i) s.step();
  const auto after = s.conserved_totals();
  for (int c = 0; c < kNumVars; ++c) {
    EXPECT_NEAR(after[c], before[c],
                1e-11 * (std::abs(before[c]) + 1.0))
        << "component " << c;
  }
}

TEST(Igr3D, ViscousTermsConserveMassAndMomentum) {
  auto cfg = default_cfg();
  cfg.mu = 0.01;
  cfg.zeta = 0.005;
  IgrSolver3D<Fp64> s(Grid::cube(12), cfg, BcSpec::all_periodic());
  s.init([](double x, double y, double) {
    Prim<double> w;
    w.rho = 1.0;
    w.u = 0.3 * std::sin(2 * M_PI * y);
    w.v = 0.2 * std::sin(2 * M_PI * x);
    w.p = 1.0;
    return w;
  });
  const auto before = s.conserved_totals();
  for (int i = 0; i < 5; ++i) s.step();
  const auto after = s.conserved_totals();
  EXPECT_NEAR(after.rho, before.rho, 1e-12);
  EXPECT_NEAR(after.mx, before.mx, 1e-12);
  EXPECT_NEAR(after.e, before.e, 1e-11);  // total E conserved (work<->heat)
}

TEST(Igr3D, ViscosityDecaysShearKineticEnergy) {
  auto cfg = default_cfg();
  cfg.mu = 0.05;
  cfg.alpha_factor = 0.0;  // isolate the viscous physics
  cfg.sigma_sweeps = 0;
  IgrSolver3D<Fp64> s(Grid::cube(16), cfg, BcSpec::all_periodic());
  s.init([](double, double y, double) {
    Prim<double> w;
    w.rho = 1.0;
    w.u = 0.3 * std::sin(2 * M_PI * y);
    w.p = 10.0;  // nearly incompressible regime
    return w;
  });
  auto ke = [&]() {
    double sum = 0;
    const auto& q = s.state();
    for (int k = 0; k < 16; ++k)
      for (int j = 0; j < 16; ++j)
        for (int i = 0; i < 16; ++i) {
          const double r = q[0](i, j, k);
          const double mx = q[1](i, j, k);
          sum += 0.5 * mx * mx / r;
        }
    return sum;
  };
  const double before = ke();
  for (int i = 0; i < 20; ++i) s.step();
  EXPECT_LT(ke(), 0.9 * before);
}

TEST(Igr3D, MatchesExactRiemannOnSodAlongX) {
  // 1-D Sod tube embedded in 3-D (uniform in y,z).  Jacobi sweeps keep the
  // Sigma field exactly symmetric in the transverse directions (the red–
  // black coloring depends on j and k, which breaks that symmetry at the
  // iteration-error level).
  auto cfg = default_cfg();
  cfg.cfl = 0.35;
  cfg.sigma_gauss_seidel = false;
  BcSpec bc;
  bc.kind = {igr::fv::BcKind::kOutflow,  igr::fv::BcKind::kOutflow,
             igr::fv::BcKind::kPeriodic, igr::fv::BcKind::kPeriodic,
             igr::fv::BcKind::kPeriodic, igr::fv::BcKind::kPeriodic};
  Grid g(128, 4, 4, {0.0, 1.0}, {0.0, 0.05}, {0.0, 0.05});
  IgrSolver3D<Fp64> s(g, cfg, bc);
  s.init([](double x, double, double) {
    Prim<double> w;
    if (x < 0.5) {
      w.rho = 1.0;
      w.p = 1.0;
    } else {
      w.rho = 0.125;
      w.p = 0.1;
    }
    return w;
  });
  while (s.time() < 0.2) s.step();
  igr::fv::ExactRiemann ex(igr::fv::sod_left(), igr::fv::sod_right(), 1.4);
  const auto ref = ex.sample_profile(128, 0.0, 1.0, 0.5, s.time());
  double l1 = 0;
  for (int i = 0; i < 128; ++i)
    l1 += std::abs(static_cast<double>(s.state()[0](i, 2, 2)) -
                   ref[static_cast<std::size_t>(i)].rho) *
          g.dx();
  EXPECT_LT(l1, 0.05);
  // And the solution stays uniform in the transverse directions.
  EXPECT_NEAR(s.state()[0](64, 1, 1), s.state()[0](64, 3, 3), 1e-12);
}

TEST(Igr3D, SigmaPositiveAtCompressionFront) {
  auto cfg = default_cfg();
  BcSpec bc = BcSpec::all_outflow();
  Grid g(64, 4, 4, {0.0, 1.0}, {0.0, 0.0625}, {0.0, 0.0625});
  IgrSolver3D<Fp64> s(g, cfg, bc);
  s.init([](double x, double, double) {
    Prim<double> w;
    w.rho = x < 0.5 ? 1.0 : 0.125;
    w.p = x < 0.5 ? 1.0 : 0.1;
    return w;
  });
  for (int i = 0; i < 20; ++i) s.step();
  double smax = 0;
  for (int i = 0; i < 64; ++i)
    smax = std::max(smax, static_cast<double>(s.sigma()(i, 2, 2)));
  EXPECT_GT(smax, 1e-8);
}

TEST(Igr3D, StorageAccountingMatchesPaper) {
  // §5.2 accounts 17N on GPU: 5 RHS arrays, reciprocals recomputed in
  // registers.  The CPU solver keeps the RHS in a two-block ring (not per
  // cell) and adds one reciprocal-density scratch field: 13N with
  // Gauss-Seidel, +1N more with Jacobi.  The paper-facing footprint model
  // (core::igr_footprint) remains 17N.
  auto cfg = default_cfg();
  IgrSolver3D<Fp64> gs(Grid::cube(8), cfg, BcSpec::all_periodic());
  EXPECT_DOUBLE_EQ(gs.storage_per_cell(), 13.0);
  cfg.sigma_gauss_seidel = false;
  IgrSolver3D<Fp64> jac(Grid::cube(8), cfg, BcSpec::all_periodic());
  EXPECT_DOUBLE_EQ(jac.storage_per_cell(), 14.0);
  EXPECT_GT(jac.memory_bytes(), gs.memory_bytes());
}

TEST(Igr3D, AlphaScalesWithMinDxSquared) {
  auto cfg = default_cfg();
  cfg.alpha_factor = 3.0;
  IgrSolver3D<Fp64> a(Grid::cube(16), cfg, BcSpec::all_periodic());
  IgrSolver3D<Fp64> b(Grid::cube(32), cfg, BcSpec::all_periodic());
  EXPECT_NEAR(a.alpha() / b.alpha(), 4.0, 1e-12);
}

TEST(Igr3D, JacobiAndGaussSeidelAgreeOnSmoothFlow) {
  auto run = [&](bool gs) {
    auto cfg = default_cfg();
    cfg.sigma_gauss_seidel = gs;
    cfg.sigma_sweeps = 20;  // converge both tightly
    IgrSolver3D<Fp64> s(Grid::cube(12), cfg, BcSpec::all_periodic());
    s.init([](double x, double, double) {
      Prim<double> w;
      w.rho = 1.0 + 0.2 * std::sin(2 * M_PI * x);
      w.u = 0.3 * std::cos(2 * M_PI * x);
      w.p = 1.0;
      return w;
    });
    for (int i = 0; i < 3; ++i) s.step_fixed(1e-3);
    return s;
  };
  auto a = run(true);
  auto b = run(false);
  // The two iterations agree to their (well-conditioned) iteration error.
  for (int k = 0; k < 12; ++k)
    for (int j = 0; j < 12; ++j)
      for (int i = 0; i < 12; ++i)
        EXPECT_NEAR(a.state()[0](i, j, k), b.state()[0](i, j, k), 1e-5);
}

template <class Policy>
class Igr3DPrecision : public ::testing::Test {};

using Policies = ::testing::Types<Fp64, Fp32, Fp16x32>;
TYPED_TEST_SUITE(Igr3DPrecision, Policies);

TYPED_TEST(Igr3DPrecision, RunsStablyOnSmoothFlow) {
  auto cfg = default_cfg();
  IgrSolver3D<TypeParam> s(Grid::cube(12), cfg, BcSpec::all_periodic());
  s.init([](double x, double y, double z) {
    igr::common::Prim<double> w;
    w.rho = 1.0 + 0.2 * std::sin(2 * M_PI * x);
    w.u = 0.3 * std::sin(2 * M_PI * y);
    w.v = 0.1 * std::cos(2 * M_PI * z);
    w.p = 1.0;
    return w;
  });
  for (int i = 0; i < 10; ++i) s.step();
  const auto& q = s.state();
  for (int k = 0; k < 12; ++k)
    for (int j = 0; j < 12; ++j)
      for (int i = 0; i < 12; ++i) {
        const double rho = static_cast<double>(q[0](i, j, k));
        ASSERT_TRUE(std::isfinite(rho));
        ASSERT_GT(rho, 0.3);
        ASSERT_LT(rho, 3.0);
      }
}

TYPED_TEST(Igr3DPrecision, HandlesShockTube) {
  auto cfg = default_cfg();
  cfg.cfl = 0.3;
  igr::fv::BcSpec bc = igr::fv::BcSpec::all_outflow();
  Grid g(64, 4, 4, {0.0, 1.0}, {0.0, 0.0625}, {0.0, 0.0625});
  IgrSolver3D<TypeParam> s(g, cfg, bc);
  s.init([](double x, double, double) {
    igr::common::Prim<double> w;
    w.rho = x < 0.5 ? 1.0 : 0.125;
    w.p = x < 0.5 ? 1.0 : 0.1;
    return w;
  });
  for (int i = 0; i < 40; ++i) s.step();
  for (int i = 0; i < 64; ++i) {
    const double rho = static_cast<double>(s.state()[0](i, 2, 2));
    ASSERT_TRUE(std::isfinite(rho)) << "cell " << i;
    ASSERT_GT(rho, 0.0);
  }
}

}  // namespace
