/// Tests for the entropic-pressure elliptic solver (paper eq. 9): discrete
/// manufactured solutions, warm-start behavior, and the ≤5-sweep claim.
/// The sweeps are composed here from the library's two relaxation kernels,
/// exactly as IgrSolver3D::sigma_sweep composes them over a whole block.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/precision.hpp"
#include "core/sigma_solver.hpp"

namespace {

using igr::common::Field3;
using igr::common::Fp32;
using igr::common::Fp64;
using igr::core::fill_sigma_ghosts;
using igr::core::SigmaBc;

/// Max-norm residual of the discrete eq. (9), evaluated cell by cell at
/// compute precision — the oracle the sweeps are checked against.
template <class Policy>
double sigma_residual(const Field3<typename Policy::storage_t>& sigma,
                      const Field3<typename Policy::storage_t>& src,
                      const Field3<typename Policy::storage_t>& inv_rho,
                      typename Policy::compute_t alpha,
                      typename Policy::compute_t dx,
                      typename Policy::compute_t dy,
                      typename Policy::compute_t dz) {
  using C = typename Policy::compute_t;
  using S = typename Policy::storage_t;
  const int nx = sigma.nx(), ny = sigma.ny(), nz = sigma.nz();
  const C inv_dx2 = C(1) / (dx * dx);
  const C inv_dy2 = C(1) / (dy * dy);
  const C inv_dz2 = C(1) / (dz * dz);
  auto at = [](const Field3<S>& f, int i, int j, int k) -> C {
    return static_cast<C>(f(i, j, k));
  };

  double res = 0.0;
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const C ir0 = at(inv_rho, i, j, k);
        const C cxm = C(0.5) * (ir0 + at(inv_rho, i - 1, j, k));
        const C cxp = C(0.5) * (ir0 + at(inv_rho, i + 1, j, k));
        const C cym = C(0.5) * (ir0 + at(inv_rho, i, j - 1, k));
        const C cyp = C(0.5) * (ir0 + at(inv_rho, i, j + 1, k));
        const C czm = C(0.5) * (ir0 + at(inv_rho, i, j, k - 1));
        const C czp = C(0.5) * (ir0 + at(inv_rho, i, j, k + 1));
        const C s0 = at(sigma, i, j, k);
        const C lap =
            inv_dx2 * ((at(sigma, i + 1, j, k) - s0) * cxp -
                       (s0 - at(sigma, i - 1, j, k)) * cxm) +
            inv_dy2 * ((at(sigma, i, j + 1, k) - s0) * cyp -
                       (s0 - at(sigma, i, j - 1, k)) * cym) +
            inv_dz2 * ((at(sigma, i, j, k + 1) - s0) * czp -
                       (s0 - at(sigma, i, j, k - 1)) * czm);
        const C r = s0 * ir0 - alpha * lap - at(src, i, j, k);
        res = std::max(res, static_cast<double>(std::abs(r)));
      }
    }
  }
  return res;
}

/// Relaxation orderings for the eq. (9) sweeps.
enum class SweepKind {
  /// Double-buffered simultaneous update (writes through `scratch`).
  kJacobi,
  /// In-place two-colour (red–black) Gauss–Seidel.
  kRedBlack,
};

/// `sweeps` whole-block relaxation sweeps, each a one-layer ghost fill and
/// then both colours or one Jacobi pass and a swap; the final fill covers
/// the full ghost depth, as reconstruction needs.
template <class Policy>
void sigma_solve(Field3<typename Policy::storage_t>& sigma,
                 Field3<typename Policy::storage_t>& scratch,
                 const Field3<typename Policy::storage_t>& src,
                 const Field3<typename Policy::storage_t>& inv_rho,
                 typename Policy::compute_t alpha,
                 typename Policy::compute_t dx,
                 typename Policy::compute_t dy,
                 typename Policy::compute_t dz, int sweeps, SweepKind kind,
                 SigmaBc bc) {
  for (int s = 0; s < sweeps; ++s) {
    fill_sigma_ghosts(sigma, bc, 1);
    if (kind == SweepKind::kRedBlack) {
      for (int color = 0; color < 2; ++color)
        igr::core::sigma_relax_planes<Policy>(sigma, src, inv_rho, alpha, dx,
                                              dy, dz, color);
    } else {
      igr::core::sigma_jacobi_planes<Policy>(scratch, sigma, src, inv_rho,
                                             alpha, dx, dy, dz);
      std::swap(sigma, scratch);
    }
  }
  fill_sigma_ghosts(sigma, bc);
}

constexpr int kN = 16;
constexpr double kPi = 3.14159265358979323846;

/// Build src = L[sigma_exact] through the discrete operator so the discrete
/// solution is exactly sigma_exact (manufactured discrete solution).
struct Manufactured {
  Field3<double> sigma_exact{kN, kN, kN, 3};
  Field3<double> inv_rho{kN, kN, kN, 3};
  Field3<double> src{kN, kN, kN, 3};
  double alpha = 2.5e-3;
  double h = 1.0 / kN;

  explicit Manufactured(bool variable_rho) {
    for (int k = -3; k < kN + 3; ++k) {
      for (int j = -3; j < kN + 3; ++j) {
        for (int i = -3; i < kN + 3; ++i) {
          const double x = (i + 0.5) * h, y = (j + 0.5) * h, z = (k + 0.5) * h;
          sigma_exact(i, j, k) =
              std::sin(2 * kPi * x) * std::cos(2 * kPi * y) *
                  std::sin(4 * kPi * z) +
              1.5;
          const double rho =
              variable_rho ? 1.0 + 0.4 * std::sin(2 * kPi * (x + y + z)) : 1.0;
          inv_rho(i, j, k) = 1.0 / rho;
        }
      }
    }
    // Apply the discrete operator (harmonic-mean face densities: face
    // coefficients are arithmetic means of 1/rho) for a discrete-exact
    // manufactured source.
    const double ih2 = 1.0 / (h * h);
    for (int k = 0; k < kN; ++k) {
      for (int j = 0; j < kN; ++j) {
        for (int i = 0; i < kN; ++i) {
          auto coef = [&](int di, int dj, int dk) {
            return 0.5 * (inv_rho(i, j, k) + inv_rho(i + di, j + dj, k + dk));
          };
          const double s0 = sigma_exact(i, j, k);
          const double lap =
              ih2 * ((sigma_exact(i + 1, j, k) - s0) * coef(1, 0, 0) -
                     (s0 - sigma_exact(i - 1, j, k)) * coef(-1, 0, 0)) +
              ih2 * ((sigma_exact(i, j + 1, k) - s0) * coef(0, 1, 0) -
                     (s0 - sigma_exact(i, j - 1, k)) * coef(0, -1, 0)) +
              ih2 * ((sigma_exact(i, j, k + 1) - s0) * coef(0, 0, 1) -
                     (s0 - sigma_exact(i, j, k - 1)) * coef(0, 0, -1));
          src(i, j, k) = s0 * inv_rho(i, j, k) - alpha * lap;
        }
      }
    }
  }
};

double max_err(const Field3<double>& a, const Field3<double>& b) {
  double m = 0;
  for (int k = 0; k < kN; ++k)
    for (int j = 0; j < kN; ++j)
      for (int i = 0; i < kN; ++i)
        m = std::max(m, std::abs(a(i, j, k) - b(i, j, k)));
  return m;
}

TEST(SigmaSolver, GaussSeidelConvergesToManufacturedSolution) {
  Manufactured m(false);
  Field3<double> sigma(kN, kN, kN, 3), scratch;
  sigma_solve<Fp64>(sigma, scratch, m.src, m.inv_rho, m.alpha, m.h, m.h, m.h,
                    400, SweepKind::kRedBlack, SigmaBc::kPeriodic);
  EXPECT_LT(max_err(sigma, m.sigma_exact), 1e-10);
}

TEST(SigmaSolver, JacobiConvergesToManufacturedSolution) {
  Manufactured m(false);
  Field3<double> sigma(kN, kN, kN, 3), scratch(kN, kN, kN, 3);
  sigma_solve<Fp64>(sigma, scratch, m.src, m.inv_rho, m.alpha, m.h, m.h, m.h,
                    800, SweepKind::kJacobi, SigmaBc::kPeriodic);
  EXPECT_LT(max_err(sigma, m.sigma_exact), 1e-9);
}

TEST(SigmaSolver, VariableDensityConverges) {
  Manufactured m(true);
  Field3<double> sigma(kN, kN, kN, 3), scratch;
  sigma_solve<Fp64>(sigma, scratch, m.src, m.inv_rho, m.alpha, m.h, m.h, m.h,
                    600, SweepKind::kRedBlack, SigmaBc::kPeriodic);
  EXPECT_LT(max_err(sigma, m.sigma_exact), 1e-9);
}

TEST(SigmaSolver, ResidualDecreasesMonotonically) {
  Manufactured m(false);
  Field3<double> sigma(kN, kN, kN, 3), scratch;
  double prev = 1e300;
  for (int rounds = 0; rounds < 6; ++rounds) {
    sigma_solve<Fp64>(sigma, scratch, m.src, m.inv_rho, m.alpha, m.h, m.h,
                      m.h, 2, SweepKind::kRedBlack, SigmaBc::kPeriodic);
    const double r = sigma_residual<Fp64>(sigma, m.src, m.inv_rho, m.alpha, m.h,
                                          m.h, m.h);
    EXPECT_LT(r, prev);
    prev = r;
  }
}

TEST(SigmaSolver, WarmStartBeatsColdStartAtFiveSweeps) {
  // The paper's usage (§5.2): with the previous Sigma as warm start, ≤5
  // sweeps per flux computation suffice.  Emulate the between-stages drift
  // (a 1% source change) and compare against a cold start.
  Manufactured m(false);
  Field3<double> warm(kN, kN, kN, 3), scratch;
  // Converge once (the "previous step" solution).
  sigma_solve<Fp64>(warm, scratch, m.src, m.inv_rho, m.alpha, m.h, m.h, m.h,
                    200, SweepKind::kRedBlack, SigmaBc::kPeriodic);
  // Drift the source by 1% and take only 5 sweeps from each start.
  for (int k = 0; k < kN; ++k)
    for (int j = 0; j < kN; ++j)
      for (int i = 0; i < kN; ++i) m.src(i, j, k) *= 1.01;

  Field3<double> cold(kN, kN, kN, 3);
  sigma_solve<Fp64>(warm, scratch, m.src, m.inv_rho, m.alpha, m.h, m.h, m.h,
                    5, SweepKind::kRedBlack, SigmaBc::kPeriodic);
  sigma_solve<Fp64>(cold, scratch, m.src, m.inv_rho, m.alpha, m.h, m.h, m.h,
                    5, SweepKind::kRedBlack, SigmaBc::kPeriodic);
  const double r_warm =
      sigma_residual<Fp64>(warm, m.src, m.inv_rho, m.alpha, m.h, m.h, m.h);
  const double r_cold =
      sigma_residual<Fp64>(cold, m.src, m.inv_rho, m.alpha, m.h, m.h, m.h);
  EXPECT_LT(r_warm, 0.2 * r_cold);   // warm start does real work
  EXPECT_LT(r_warm, 1e-2);           // and lands at a small residual
}

TEST(SigmaSolver, WellConditionedBecauseAlphaScalesWithH2) {
  // alpha ∝ dx^2 makes the relaxation contraction rate saturate at a value
  // bounded away from 1 as h -> 0, unlike an unregularized Poisson solve
  // whose Gauss–Seidel rate degrades as 1 - O(h^2).  Measure the asymptotic
  // per-sweep rate between sweeps 10 and 30.
  auto rate = [](int n) {
    const double h = 1.0 / n;
    const double alpha = 5.0 * h * h;
    Field3<double> sigma(n, n, n, 3), scratch, src(n, n, n, 3),
        rho(n, n, n, 3);
    rho.fill(1.0);
    for (int k = 0; k < n; ++k)
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i)
          src(i, j, k) = std::sin(2 * kPi * (i + 0.5) / n) *
                         std::cos(2 * kPi * (j + 0.5) / n);
    sigma_solve<Fp64>(sigma, scratch, src, rho, alpha, h, h, h, 10,
                      SweepKind::kRedBlack, SigmaBc::kPeriodic);
    const double r10 =
        sigma_residual<Fp64>(sigma, src, rho, alpha, h, h, h);
    sigma_solve<Fp64>(sigma, scratch, src, rho, alpha, h, h, h, 20,
                      SweepKind::kRedBlack, SigmaBc::kPeriodic);
    const double r30 =
        sigma_residual<Fp64>(sigma, src, rho, alpha, h, h, h);
    return std::pow(r30 / r10, 1.0 / 20.0);
  };
  const double r16 = rate(16);
  const double r32 = rate(32);
  const double r64 = rate(64);
  // Bounded away from 1 at every resolution...
  EXPECT_LT(r16, 0.96);
  EXPECT_LT(r32, 0.96);
  EXPECT_LT(r64, 0.96);
  // ...and saturating rather than degrading: the 32->64 change is smaller
  // than the 16->32 change (a Poisson rate would keep marching toward 1).
  EXPECT_LT(r64 - r32, r32 - r16 + 0.02);
}

TEST(SigmaSolver, Fp32PolicyConverges) {
  Manufactured m(false);
  Field3<float> sigma(kN, kN, kN, 3), scratch, src(kN, kN, kN, 3),
      rho(kN, kN, kN, 3);
  for (int k = -3; k < kN + 3; ++k)
    for (int j = -3; j < kN + 3; ++j)
      for (int i = -3; i < kN + 3; ++i) {
        src(i, j, k) = (i >= 0 && i < kN && j >= 0 && j < kN && k >= 0 &&
                        k < kN)
                           ? static_cast<float>(m.src(i, j, k))
                           : 0.0f;
        rho(i, j, k) = 1.0f;
      }
  sigma_solve<Fp32>(sigma, scratch, src, rho, float(m.alpha), float(m.h),
                    float(m.h), float(m.h), 200, SweepKind::kRedBlack,
                    SigmaBc::kPeriodic);
  const double r = sigma_residual<Fp32>(sigma, src, rho, float(m.alpha),
                                        float(m.h), float(m.h), float(m.h));
  EXPECT_LT(r, 1e-4);
}

TEST(SigmaGhosts, PeriodicWrap) {
  Field3<double> f(4, 4, 4, 2);
  for (int k = 0; k < 4; ++k)
    for (int j = 0; j < 4; ++j)
      for (int i = 0; i < 4; ++i) f(i, j, k) = 100.0 * i + 10.0 * j + k;
  fill_sigma_ghosts(f, SigmaBc::kPeriodic);
  EXPECT_EQ(f(-1, 2, 2), f(3, 2, 2));
  EXPECT_EQ(f(4, 1, 1), f(0, 1, 1));
  EXPECT_EQ(f(2, -2, 3), f(2, 2, 3));
}

TEST(SigmaGhosts, NeumannClamp) {
  Field3<double> f(4, 4, 4, 2);
  for (int k = 0; k < 4; ++k)
    for (int j = 0; j < 4; ++j)
      for (int i = 0; i < 4; ++i) f(i, j, k) = 100.0 * i + 10.0 * j + k;
  fill_sigma_ghosts(f, SigmaBc::kNeumann);
  EXPECT_EQ(f(-1, 2, 2), f(0, 2, 2));
  EXPECT_EQ(f(5, 1, 1), f(3, 1, 1));
}

TEST(SigmaSolver, RedBlackAndJacobiReachTheSameFixedPoint) {
  // The two-color ordering must relax to the same fixed point as Jacobi —
  // they differ only in iteration error, which vanishes at convergence.
  Manufactured m(true);
  Field3<double> rb(kN, kN, kN, 3), jac(kN, kN, kN, 3),
      scratch(kN, kN, kN, 3);
  sigma_solve<Fp64>(rb, scratch, m.src, m.inv_rho, m.alpha, m.h, m.h, m.h,
                    400, SweepKind::kRedBlack, SigmaBc::kPeriodic);
  sigma_solve<Fp64>(jac, scratch, m.src, m.inv_rho, m.alpha, m.h, m.h, m.h,
                    400, SweepKind::kJacobi, SigmaBc::kPeriodic);
  EXPECT_LT(max_err(rb, jac), 1e-10);
  // And both land on the manufactured discrete solution.
  EXPECT_LT(max_err(rb, m.sigma_exact), 1e-10);
}

TEST(SigmaSolver, RedBlackResidualContractsAtFiveSweeps) {
  // The production usage: five warm-started sweeps per flux computation.
  // Red-black, which uses half-updated neighbors like any Gauss–Seidel
  // ordering, must make more per-sweep progress than Jacobi.
  Manufactured m(false);
  auto residual_after = [&](SweepKind kind) {
    Field3<double> sigma(kN, kN, kN, 3), scratch(kN, kN, kN, 3);
    sigma_solve<Fp64>(sigma, scratch, m.src, m.inv_rho, m.alpha, m.h, m.h,
                      m.h, 5, kind, SigmaBc::kPeriodic);
    return sigma_residual<Fp64>(sigma, m.src, m.inv_rho, m.alpha, m.h, m.h,
                                m.h);
  };
  const double r_rb = residual_after(SweepKind::kRedBlack);
  const double r_jacobi = residual_after(SweepKind::kJacobi);
  EXPECT_LT(r_rb, r_jacobi);
  EXPECT_GT(r_rb, 0.0);
}

TEST(SigmaSolver, ZeroSourceGivesZeroSolution) {
  Field3<double> sigma(8, 8, 8, 3), scratch, src(8, 8, 8, 3), rho(8, 8, 8, 3);
  rho.fill(1.0);
  sigma_solve<Fp64>(sigma, scratch, src, rho, 1e-3, 0.1, 0.1, 0.1, 50,
                    SweepKind::kRedBlack, SigmaBc::kPeriodic);
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 8; ++i) EXPECT_EQ(sigma(i, j, k), 0.0);
}

}  // namespace
