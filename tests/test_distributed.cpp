/// Distributed-vs-single-domain equivalence: the centerpiece correctness
/// claim of the simulated MPI substrate.  With Jacobi Sigma sweeps the
/// decomposed run must be *bitwise identical* to the single-domain run.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/igr_solver3d.hpp"
#include "eos/ideal_gas.hpp"
#include "fv/cfl.hpp"
#include "sim/distributed_igr.hpp"

namespace {

using igr::common::Fp32;
using igr::common::Fp64;
using igr::common::kNumVars;
using igr::common::Prim;
using igr::common::SolverConfig;
using igr::core::IgrSolver3D;
using igr::fv::BcSpec;
using igr::mesh::Grid;
using igr::sim::DistributedIgr;

constexpr int kN = 16;

SolverConfig jacobi_cfg() {
  SolverConfig cfg;
  cfg.alpha_factor = 5.0;
  cfg.sigma_sweeps = 5;
  cfg.sigma_gauss_seidel = false;  // Jacobi: sweeps are decomposition-exact
  return cfg;
}

igr::core::PrimFn smooth_ic() {
  return [](double x, double y, double z) {
    Prim<double> w;
    w.rho = 1.0 + 0.3 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y);
    w.u = 0.4 * std::sin(2 * M_PI * y);
    w.v = -0.2 * std::cos(2 * M_PI * z);
    w.w = 0.1 * std::sin(2 * M_PI * (x + z));
    w.p = 1.0 + 0.2 * std::cos(2 * M_PI * x);
    return w;
  };
}

/// The CFL dt a dedicated scan of the single-domain state and warm Sigma
/// gives.
template <class Policy>
double scan_dt(const IgrSolver3D<Policy>& s) {
  return igr::fv::compute_dt(s.state(), s.grid(), s.eos(), s.config(),
                             &s.sigma());
}

/// The same scan over the decomposed run's gathered state and Sigma.  The
/// ranks fold their CFL reduction into the final RK stage of the previous
/// step; the allreduced fold must equal this whole-domain scan.
template <class Policy>
double scan_dt(const DistributedIgr<Policy>& d, const SolverConfig& cfg) {
  const auto q = d.gather();
  const auto sigma = d.gather_sigma();
  return igr::fv::compute_dt(q, d.comm().global_grid(),
                             igr::eos::IdealGas(cfg.gamma), cfg, &sigma);
}

/// One adaptive step of both runs; both dts must equal the test's scans.
template <class Policy>
void expect_adaptive_step(IgrSolver3D<Policy>& single,
                          DistributedIgr<Policy>& dist,
                          const SolverConfig& cfg, int step) {
  const double scan = scan_dt(single);
  ASSERT_EQ(scan_dt(dist, cfg), scan) << "step " << step;
  ASSERT_EQ(single.step(), scan) << "single-domain step " << step;
  ASSERT_EQ(dist.step(), scan) << "decomposed step " << step;
}

/// Step a single-domain solver and a `layout` decomposition of the
/// periodic cube `n` side by side (adaptive dt when `adaptive`, else a
/// fixed 2e-3), then require identical dts, state, and Sigma.
void expect_layout_matches_single_domain(int n, std::array<int, 3> layout,
                                         int steps, bool adaptive) {
  SCOPED_TRACE(std::to_string(layout[0]) + "x" + std::to_string(layout[1]) +
               "x" + std::to_string(layout[2]) + " n=" + std::to_string(n));
  const auto g = Grid::cube(n);
  const auto cfg = jacobi_cfg();
  const auto bc = BcSpec::all_periodic();
  IgrSolver3D<Fp64> single(g, cfg, bc);
  single.init(smooth_ic());
  DistributedIgr<Fp64> dist(g, layout[0], layout[1], layout[2], cfg, bc);
  dist.init(smooth_ic());
  for (int step = 0; step < steps; ++step) {
    if (adaptive) {
      expect_adaptive_step(single, dist, cfg, step);
    } else {
      single.step_fixed(2e-3);
      dist.step_fixed(2e-3);
    }
  }
  const auto q = dist.gather();
  const auto sigma = dist.gather_sigma();
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) {
        for (int c = 0; c < kNumVars; ++c)
          ASSERT_EQ(single.state()[c](i, j, k), q[c](i, j, k))
              << "comp " << c << " cell " << i << "," << j << "," << k;
        ASSERT_EQ(single.sigma()(i, j, k), sigma(i, j, k))
            << "sigma cell " << i << "," << j << "," << k;
      }
}

class DistributedLayouts
    : public ::testing::TestWithParam<std::array<int, 3>> {};

TEST_P(DistributedLayouts, BitwiseMatchesSingleDomainWithJacobi) {
  expect_layout_matches_single_domain(kN, GetParam(), 3, /*adaptive=*/false);
}

INSTANTIATE_TEST_SUITE_P(Layouts, DistributedLayouts,
                         ::testing::Values(std::array<int, 3>{1, 1, 1},
                                           std::array<int, 3>{2, 1, 1},
                                           std::array<int, 3>{1, 2, 1},
                                           std::array<int, 3>{1, 1, 2},
                                           std::array<int, 3>{2, 2, 1},
                                           std::array<int, 3>{2, 2, 2},
                                           // Uneven: 16 over 3 -> 6,5,5.
                                           std::array<int, 3>{3, 2, 1},
                                           std::array<int, 3>{1, 3, 3},
                                           // Remainders on every axis.
                                           std::array<int, 3>{3, 5, 3}));

TEST(Distributed, GaussSeidelAgreesToIterationTolerance) {
  // Block Gauss-Seidel is not bitwise-identical but must agree to the
  // tolerance of the (well-conditioned) Sigma iteration.
  auto cfg = jacobi_cfg();
  cfg.sigma_gauss_seidel = true;
  const auto g = Grid::cube(kN);
  const auto bc = BcSpec::all_periodic();

  IgrSolver3D<Fp64> single(g, cfg, bc);
  single.init(smooth_ic());
  DistributedIgr<Fp64> dist(g, 2, 2, 1, cfg, bc);
  dist.init(smooth_ic());

  for (int step = 0; step < 3; ++step) {
    single.step_fixed(2e-3);
    dist.step_fixed(2e-3);
  }
  const auto gathered = dist.gather();
  // Block vs sequential Gauss-Seidel differ at the iteration-error level
  // of the (well-conditioned) Sigma solve, far below discretization error.
  for (int k = 0; k < kN; ++k)
    for (int j = 0; j < kN; ++j)
      for (int i = 0; i < kN; ++i)
        ASSERT_NEAR(single.state()[0](i, j, k), gathered[0](i, j, k), 1e-5);
}

TEST(Distributed, NonPeriodicOutflowMatchesSingleDomain) {
  auto cfg = jacobi_cfg();
  const auto g = Grid::cube(kN);
  const auto bc = BcSpec::all_outflow();

  IgrSolver3D<Fp64> single(g, cfg, bc);
  single.init(smooth_ic());
  DistributedIgr<Fp64> dist(g, 2, 1, 2, cfg, bc);
  dist.init(smooth_ic());

  for (int step = 0; step < 2; ++step) {
    single.step_fixed(1e-3);
    dist.step_fixed(1e-3);
  }
  const auto gathered = dist.gather();
  for (int c = 0; c < kNumVars; ++c)
    for (int k = 0; k < kN; ++k)
      for (int j = 0; j < kN; ++j)
        for (int i = 0; i < kN; ++i)
          ASSERT_EQ(single.state()[c](i, j, k), gathered[c](i, j, k))
              << c << " " << i << " " << j << " " << k;
}

TEST(Distributed, EightRankFusedMatchesSingleDomainBitwise) {
  // The single-domain side runs the full step (whole-block Sigma sweeps
  // under the Neumann sigma boundary, streamed flux blocks, RK fold, dt
  // fold); the ranks run the same Sigma sweeps between halo exchanges and
  // then the same streamed flux/RK stage and dt fold.  Jacobi sweeps keep the
  // decomposition exact, so the 2x2x2 run must stay bitwise-identical to
  // the fused solver — state and adaptive dt.
  const auto cfg = jacobi_cfg();
  const auto g = Grid::cube(kN);
  const auto bc = BcSpec::all_outflow();

  IgrSolver3D<Fp64> fused_single(g, cfg, bc);
  fused_single.init(smooth_ic());
  DistributedIgr<Fp64> dist(g, 2, 2, 2, cfg, bc);
  dist.init(smooth_ic());

  for (int step = 0; step < 2; ++step)
    expect_adaptive_step(fused_single, dist, cfg, step);
  const auto gathered = dist.gather();
  for (int c = 0; c < kNumVars; ++c)
    for (int k = 0; k < kN; ++k)
      for (int j = 0; j < kN; ++j)
        for (int i = 0; i < kN; ++i)
          ASSERT_EQ(fused_single.state()[c](i, j, k), gathered[c](i, j, k))
              << "comp " << c << " cell " << i << "," << j << "," << k;
}

TEST(Distributed, CflStepMatchesSingleDomainDt) {
  const auto g = Grid::cube(kN);
  const auto cfg = jacobi_cfg();
  const auto bc = BcSpec::all_periodic();
  IgrSolver3D<Fp64> single(g, cfg, bc);
  single.init(smooth_ic());
  DistributedIgr<Fp64> dist(g, 2, 2, 1, cfg, bc);
  dist.init(smooth_ic());
  expect_adaptive_step(single, dist, cfg, 0);
}

TEST(Distributed, Fp32PolicyAlsoMatches) {
  const auto g = Grid::cube(kN);
  const auto cfg = jacobi_cfg();
  const auto bc = BcSpec::all_periodic();
  IgrSolver3D<Fp32> single(g, cfg, bc);
  single.init(smooth_ic());
  DistributedIgr<Fp32> dist(g, 2, 1, 1, cfg, bc);
  dist.init(smooth_ic());
  single.step_fixed(1e-3);
  dist.step_fixed(1e-3);
  const auto gathered = dist.gather();
  for (int k = 0; k < kN; ++k)
    for (int j = 0; j < kN; ++j)
      for (int i = 0; i < kN; ++i)
        ASSERT_EQ(single.state()[0](i, j, k), gathered[0](i, j, k));
}

TEST(Distributed, JetInflowPatchesSpanRankBoundaries) {
  // The production configuration: engine inflow patches on the z-low face,
  // reflective base plate, outflow elsewhere — decomposed so patches cross
  // rank boundaries.  Jacobi sweeps keep it bitwise-equal to single-domain.
  auto cfg = jacobi_cfg();
  cfg.density_floor = 1e-6;
  cfg.pressure_floor = 1e-6;

  igr::fv::BcSpec bc = igr::fv::BcSpec::all_outflow();
  bc.kind[static_cast<std::size_t>(igr::mesh::Face::kZLo)] =
      igr::fv::BcKind::kInflowPatches;
  igr::fv::InflowPatch patch;
  patch.cx = 0.5;  // centered: the 2x2 decomposition splits it 4 ways
  patch.cy = 0.5;
  patch.radius = 0.22;
  patch.state = {1.0, 0.0, 0.0, 4.0, 1.0};  // supersonic jet along +z
  bc.patches[static_cast<std::size_t>(igr::mesh::Face::kZLo)].push_back(
      patch);

  const auto g = Grid::cube(kN);
  IgrSolver3D<Fp64> single(g, cfg, bc);
  DistributedIgr<Fp64> dist(g, 2, 2, 1, cfg, bc);
  auto ambient = [](double, double, double) {
    return Prim<double>{1.0, 0.0, 0.0, 0.0, 1.0};
  };
  single.init(ambient);
  dist.init(ambient);

  for (int s = 0; s < 5; ++s) {
    single.step_fixed(5e-4);
    dist.step_fixed(5e-4);
  }
  const auto gathered = dist.gather();
  // The jet must actually have started entering the domain...
  double max_mz = 0;
  for (int j = 0; j < kN; ++j)
    for (int i = 0; i < kN; ++i)
      max_mz = std::max(max_mz, single.state()[3](i, j, 0));
  EXPECT_GT(max_mz, 0.05);
  // ...identically in both runs.
  for (int c = 0; c < kNumVars; ++c)
    for (int k = 0; k < kN; ++k)
      for (int j = 0; j < kN; ++j)
        for (int i = 0; i < kN; ++i)
          ASSERT_EQ(single.state()[c](i, j, k), gathered[c](i, j, k))
              << c << " " << i << " " << j << " " << k;
}

TEST(Distributed, OneCellThickBlocksMatchSingleDomain) {
  // Blocks thinner than the ghost depth: every halo face needs planes from
  // ranks several hops away.  Periodic Jacobi stays bitwise-exact.
  const auto g = Grid::cube(8);
  const auto cfg = jacobi_cfg();
  const auto bc = BcSpec::all_periodic();

  IgrSolver3D<Fp64> single(g, cfg, bc);
  single.init(smooth_ic());
  for (auto [rx, ry, rz] :
       {std::array<int, 3>{8, 1, 1}, std::array<int, 3>{1, 8, 2},
        std::array<int, 3>{4, 2, 2}}) {
    DistributedIgr<Fp64> dist(g, rx, ry, rz, cfg, bc);
    dist.init(smooth_ic());
    IgrSolver3D<Fp64> ref(g, cfg, bc);
    ref.init(smooth_ic());
    for (int step = 0; step < 2; ++step) {
      ref.step_fixed(1e-3);
      dist.step_fixed(1e-3);
    }
    const auto gathered = dist.gather();
    for (int c = 0; c < kNumVars; ++c)
      for (int k = 0; k < 8; ++k)
        for (int j = 0; j < 8; ++j)
          for (int i = 0; i < 8; ++i)
            ASSERT_EQ(ref.state()[c](i, j, k), gathered[c](i, j, k))
                << rx << "x" << ry << "x" << rz << " comp " << c << " cell "
                << i << "," << j << "," << k;
  }
}

TEST(Distributed, RejectsNonPeriodicThinBlockNearBoundary) {
  // 16 over 5 along x -> 4,3,3,3,3: the fourth block ends 3 cells from the
  // boundary (fine), but 16 over 6 -> 3,3,3,3,2,2 puts a block 2 cells from
  // the x-high face without touching it; its ghost planes would be neither
  // exchanged nor BC-filled, so the driver must refuse.
  const auto cfg = jacobi_cfg();
  const auto bc = BcSpec::all_outflow();
  EXPECT_NO_THROW(
      DistributedIgr<Fp64>(Grid::cube(kN), 5, 1, 1, cfg, bc));
  EXPECT_THROW(DistributedIgr<Fp64>(Grid::cube(kN), 6, 1, 1, cfg, bc),
               std::invalid_argument);
}

TEST(Distributed, InvalidRankConfigThrowsItsErrorFromTheConstructor) {
  // Every rank solver is built on its own worker; a config that fails
  // SolverConfig::validate() must surface that exact error from the
  // constructor (not hang, not a generic failure) on every layout.
  auto cfg = jacobi_cfg();
  cfg.cfl = 1.5;
  const auto bc = BcSpec::all_periodic();
  for (const std::array<int, 3> layout :
       {std::array<int, 3>{1, 1, 1}, {2, 2, 1}}) {
    try {
      DistributedIgr<Fp64> dist(Grid::cube(kN), layout[0], layout[1],
                                layout[2], cfg, bc);
      ADD_FAILURE() << "constructor accepted cfl 1.5";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "cfl must lie in (0,1]");
    }
  }
}

TEST(Distributed, ConcurrentScheduleMatchesSingleDomain) {
  // Rank workers step concurrently, synchronized only by phase barriers
  // and the pairwise halo epochs; the run must reproduce the single-domain
  // bits, Sigma and adaptive dt included.
  expect_layout_matches_single_domain(kN, {2, 2, 1}, 3, /*adaptive=*/true);
}

TEST(Distributed, ZSplitAdaptiveLayoutMatchesSingleDomain) {
  // Two ranks on z: every rank's streamed flux blocks and its folded dt
  // border an exchanged z face.
  expect_layout_matches_single_domain(kN, {2, 1, 2}, 2, /*adaptive=*/true);
}

TEST(Distributed, ZSplitLayoutsMatchSingleDomain) {
  // z-split layouts down to nz = 2 and nz = 1 local blocks, thinner than
  // one flux block and than the ghost depth.
  expect_layout_matches_single_domain(kN, {2, 1, 2}, 2, /*adaptive=*/false);
  expect_layout_matches_single_domain(kN, {1, 1, 8}, 2, /*adaptive=*/false);
  expect_layout_matches_single_domain(8, {1, 2, 8}, 2, /*adaptive=*/false);
}

TEST(Distributed, Fp16x32HalfWireStaysBitwiseEqualToSingleDomain) {
  // Half-storage runs already move 2-byte halos: requesting the half-width
  // wire must be a pass-through, keeping the decomposed run bitwise equal
  // to the single-domain solver.
  using igr::common::Fp16x32;
  const auto g = Grid::cube(kN);
  const auto cfg = jacobi_cfg();
  const auto bc = BcSpec::all_periodic();

  IgrSolver3D<Fp16x32> single(g, cfg, bc);
  single.init(smooth_ic());
  igr::sim::DistOptions opts;
  opts.halo_wire = igr::sim::Comm::WirePrecision::kHalf;
  DistributedIgr<Fp16x32> dist(g, 2, 2, 1, cfg, bc,
                               igr::fv::ReconScheme::kFifth, opts);
  dist.init(smooth_ic());

  for (int step = 0; step < 3; ++step) {
    single.step_fixed(2e-3);
    dist.step_fixed(2e-3);
  }
  const auto gathered = dist.gather();
  for (int c = 0; c < kNumVars; ++c)
    for (int k = 0; k < kN; ++k)
      for (int j = 0; j < kN; ++j)
        for (int i = 0; i < kN; ++i)
          ASSERT_EQ(static_cast<float>(single.state()[c](i, j, k)),
                    static_cast<float>(gathered[c](i, j, k)))
              << c << " " << i << " " << j << " " << k;
}

TEST(Distributed, HalfWireHalvesFp32HaloTrafficPerStep) {
  // The driver-level byte-reduction acceptance: the same decomposed FP32
  // step sequence moves exactly half the halo bytes at kHalf wire (state
  // and Sigma channels both narrow 4 -> 2 bytes per value).
  const auto g = Grid::cube(kN);
  const auto cfg = jacobi_cfg();
  const auto bc = BcSpec::all_periodic();

  auto traffic = [&](igr::sim::Comm::WirePrecision w) {
    igr::sim::DistOptions opts;
    opts.halo_wire = w;
    DistributedIgr<Fp32> d(g, 2, 2, 1, cfg, bc,
                           igr::fv::ReconScheme::kFifth, opts);
    d.init(smooth_ic());
    const std::size_t before = d.comm().bytes_exchanged();
    for (int step = 0; step < 2; ++step) d.step_fixed(1e-3);
    return d.comm().bytes_exchanged() - before;
  };
  const auto full = traffic(igr::sim::Comm::WirePrecision::kFull);
  const auto half = traffic(igr::sim::Comm::WirePrecision::kHalf);
  ASSERT_GT(half, 0u);
  EXPECT_EQ(full, 2 * half);
}

/// Rank-parallel vs single-domain bitwise equivalence under sustained
/// concurrency, for one storage policy.  Run under ThreadSanitizer
/// (`bench/run_sanitize.sh build-tsan tsan`, also a CI job) this doubles
/// as the halo pipeline's race detector: every phase and epoch publish is
/// exercised across 12 concurrently stepping ranks for several adaptive
/// steps.
template <class Policy>
void stress_policy() {
  const auto g = Grid::cube(12);
  auto cfg = jacobi_cfg();
  cfg.density_floor = 1e-6;
  cfg.pressure_floor = 1e-6;
  const auto bc = BcSpec::all_periodic();

  IgrSolver3D<Policy> single(g, cfg, bc);
  single.init(smooth_ic());
  auto rank_cfg = cfg;
  rank_cfg.exec_threads = 1;
  DistributedIgr<Policy> dist(g, 3, 2, 2, rank_cfg, bc);
  dist.init(smooth_ic());

  for (int step = 0; step < 4; ++step)
    expect_adaptive_step(single, dist, cfg, step);
  const auto gathered = dist.gather();
  for (int c = 0; c < kNumVars; ++c)
    for (int k = 0; k < 12; ++k)
      for (int j = 0; j < 12; ++j)
        for (int i = 0; i < 12; ++i)
          ASSERT_EQ(static_cast<double>(single.state()[c](i, j, k)),
                    static_cast<double>(gathered[c](i, j, k)))
              << c << " " << i << " " << j << " " << k;
}

TEST(DistributedStress, Fp64TwelveRanksBitwise) { stress_policy<Fp64>(); }
TEST(DistributedStress, Fp32TwelveRanksBitwise) { stress_policy<Fp32>(); }
TEST(DistributedStress, Fp16x32TwelveRanksBitwise) {
  stress_policy<igr::common::Fp16x32>();
}

TEST(Distributed, MultipleOmpThreadsPerRankKeepBits) {
  // Kernel results must not depend on the OpenMP team size a rank uses.
  const auto g = Grid::cube(kN);
  const auto cfg = jacobi_cfg();
  const auto bc = BcSpec::all_periodic();
  auto two = cfg;
  two.exec_threads = 2;
  DistributedIgr<Fp64> da(g, 2, 2, 1, two, bc);
  IgrSolver3D<Fp64> single(g, cfg, bc);
  da.init(smooth_ic());
  single.init(smooth_ic());
  for (int step = 0; step < 2; ++step) {
    single.step_fixed(2e-3);
    da.step_fixed(2e-3);
  }
  const auto a = da.gather();
  for (int c = 0; c < kNumVars; ++c)
    for (int k = 0; k < kN; ++k)
      for (int j = 0; j < kN; ++j)
        for (int i = 0; i < kN; ++i)
          ASSERT_EQ(single.state()[c](i, j, k), a[c](i, j, k));
}

TEST(Distributed, TraffiqueMeteredDuringStep) {
  const auto g = Grid::cube(kN);
  DistributedIgr<Fp64> dist(g, 2, 1, 1, jacobi_cfg(), BcSpec::all_periodic());
  dist.init(smooth_ic());
  dist.step_fixed(1e-3);
  EXPECT_GT(dist.comm().bytes_exchanged(), 0u);
}

}  // namespace
