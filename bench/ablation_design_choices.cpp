/// \file ablation_design_choices.cpp
/// Ablation study over the design choices DESIGN.md calls out:
///   (a) Sigma sweep count — the paper's "≤5 warm-started sweeps" (§5.2);
///   (b) Jacobi vs Gauss–Seidel relaxation (+1N storage for Jacobi);
///   (c) reconstruction order — the 5th-order choice vs 3rd/1st;
///   (d) regularization strength alpha_factor — accuracy vs shock width.
/// Each knob is varied in isolation on fixed validation problems; the
/// quality metric is L1 density error against the exact Riemann solution,
/// and cost is the measured grind time where it is the point.

#include <cmath>
#include <cstdio>

#include "app/jet_config.hpp"
#include "bench_util.hpp"
#include "core/igr_solver1d.hpp"
#include "fv/exact_riemann.hpp"

namespace {

using namespace igr;
using core::IgrSolver1D;
using core::Prim1;

auto sod_ic() {
  return [](double x) {
    Prim1 w;
    if (x < 0.5) {
      w.rho = 1.0;
      w.p = 1.0;
    } else {
      w.rho = 0.125;
      w.p = 0.1;
    }
    return w;
  };
}

double sod_l1(const IgrSolver1D::Options& opt, int n = 400) {
  IgrSolver1D s(n, 0.0, 1.0, opt);
  s.init(sod_ic());
  s.advance_to(0.2);
  fv::ExactRiemann ex(fv::sod_left(), fv::sod_right(), opt.gamma);
  const auto ref = ex.sample_profile(n, 0.0, 1.0, 0.5, 0.2);
  const auto rho = s.rho();
  double l1 = 0;
  for (int i = 0; i < n; ++i)
    l1 += std::abs(rho[static_cast<std::size_t>(i)] -
                   ref[static_cast<std::size_t>(i)].rho) /
          n;
  return l1;
}

void ablate_sweeps() {
  bench::print_header("(a) Sigma sweep count (warm-started Gauss-Seidel)");
  std::printf("%10s %16s %20s\n", "sweeps", "Sod L1 error",
              "3-D grind [ns/cell]");
  IgrSolver1D::Options opt;
  opt.alpha_factor = 5.0;
  for (int sweeps : {1, 2, 3, 5, 10, 20}) {
    opt.sigma_sweeps = sweeps;
    // 3-D cost at the same sweep count (jet workload, FP64).
    const auto jet = app::single_engine();
    typename app::Simulation<common::Fp64>::Params p;
    p.grid = mesh::Grid(20, 20, 30, {0, 1}, {0, 1}, {0, 1.5});
    p.cfg = jet.solver_config();
    p.cfg.sigma_sweeps = sweeps;
    p.bc = jet.make_bc();
    app::Simulation<common::Fp64> sim(p);
    sim.init(jet.initial_condition(0.005));
    sim.run_steps(1);
    const auto m0 = sim.meters();
    sim.run_steps(2);
    const double grind = (sim.meters() - m0).grind_ns(p.grid.cells());
    std::printf("%10d %16.5e %20.0f\n", sweeps, sod_l1(opt), grind);
  }
  std::printf("  -> accuracy saturates by ~5 sweeps while cost keeps "
              "growing: the paper's choice.\n");
}

void ablate_relaxation() {
  bench::print_header("(b) Gauss-Seidel vs Jacobi relaxation");
  IgrSolver1D::Options opt;
  opt.alpha_factor = 5.0;
  opt.sigma_sweeps = 5;
  opt.gauss_seidel = true;
  const double gs = sod_l1(opt);
  opt.gauss_seidel = false;
  const double jac = sod_l1(opt);
  std::printf("  Sod L1: Gauss-Seidel %.5e | Jacobi %.5e (same accuracy "
              "class)\n",
              gs, jac);
  std::printf("  Jacobi costs +1N storage (double buffer) but is "
              "decomposition-exact\n  (bitwise-identical distributed runs; "
              "see tests/test_distributed.cpp).\n");
}

/// L1 error advecting a smooth density wave one half-period (exact solution
/// known); the regime where formal order shows.
double smooth_l1(fv::ReconScheme recon, int n) {
  IgrSolver1D::Options opt;
  opt.alpha_factor = 5.0;
  opt.bc = core::Bc1D::kPeriodic;
  opt.recon = recon;
  IgrSolver1D s(n, 0.0, 1.0, opt);
  s.init([](double x) {
    Prim1 w;
    w.rho = 1.0 + 0.2 * std::sin(2 * M_PI * x);
    w.u = 1.0;
    w.p = 100.0;  // acoustically stiff: advection-dominated density
    return w;
  });
  s.advance_to(0.5);
  const auto rho = s.rho();
  double l1 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = s.x(i) - 0.5;  // advected by u*t = 0.5
    l1 += std::abs(rho[static_cast<std::size_t>(i)] -
                   (1.0 + 0.2 * std::sin(2 * M_PI * x))) /
          n;
  }
  return l1;
}

void ablate_recon_order() {
  bench::print_header("(c) Reconstruction order (IGR permits linear schemes)");
  std::printf("%14s %16s %22s\n", "scheme", "Sod L1 error",
              "smooth advection L1");
  IgrSolver1D::Options opt;
  opt.alpha_factor = 5.0;
  struct Case {
    fv::ReconScheme s;
    const char* name;
  };
  for (auto c : {Case{fv::ReconScheme::kFirst, "1st order"},
                 Case{fv::ReconScheme::kThird, "3rd order"},
                 Case{fv::ReconScheme::kFifth, "5th order"}}) {
    opt.recon = c.s;
    std::printf("%14s %16.5e %22.5e\n", c.name, sod_l1(opt),
                smooth_l1(c.s, 64));
  }
  std::printf(
      "  -> at a captured shock the orders are comparable (L1 is dominated\n"
      "     by the regularized transition), but on smooth features — the\n"
      "     turbulence/acoustics the paper targets — high linear order wins\n"
      "     by orders of magnitude, with no limiter in the loop (§5.2, §8).\n");
}

void ablate_alpha() {
  bench::print_header("(d) Regularization strength alpha = factor * dx^2");
  std::printf("%14s %16s %18s\n", "alpha_factor", "Sod L1 error",
              "shock width [cells]");
  for (double af : {1.0, 2.0, 3.0, 5.0, 10.0}) {
    IgrSolver1D::Options opt;
    opt.alpha_factor = af;
    IgrSolver1D s(800, 0.0, 1.0, opt);
    s.init(sod_ic());
    s.advance_to(0.2);
    const auto rho = s.rho();
    int width = 0;
    for (int i = 580; i < 800; ++i) {
      const double r = rho[static_cast<std::size_t>(i)];
      if (r > 0.139 && r < 0.252) ++width;
    }
    std::printf("%14.1f %16.5e %18d\n", af, sod_l1(opt, 800), width);
  }
  std::printf("  -> width ~ sqrt(alpha); small alpha sharpens but risks "
              "under-regularized\n     oscillations, large alpha smears: "
              "the paper's alpha ∝ dx^2 with O(1) factor.\n");
}

}  // namespace

int main() {
  std::printf("igrflow :: ablation of IGR design choices\n");
  ablate_sweeps();
  ablate_relaxation();
  ablate_recon_order();
  ablate_alpha();
  return 0;
}
