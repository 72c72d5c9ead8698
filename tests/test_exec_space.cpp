/// The exec-space contract: every backend and every team width produces the
/// same bits.  Covers the ExecSpace primitive itself (partition coverage,
/// team launch, barrier phase ordering), then the solver-level guarantees —
/// Serial vs OpenMP bitwise on state fingerprints AND per-step dt for the
/// single-domain and decomposed drivers and every storage precision,
/// thread-count invariance at widths 1/2/4 (also on blocks thinner than
/// the team), the distributed driver with a multi-threaded exec
/// space inside each rank worker (the configuration the TSan tree races),
/// and the whole-field passes outside the step: initial-condition
/// evaluation and the health scan, single-domain and per rank worker.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "app/health.hpp"
#include "app/simulation.hpp"
#include "cases/runner.hpp"
#include "common/exec.hpp"
#include "common/hash.hpp"
#include "core/igr_solver3d.hpp"
#include "sim/distributed_igr.hpp"

namespace {

using igr::common::Bf16x32;
using igr::common::ExecBackend;
using igr::common::ExecSpace;
using igr::common::Fp16x32;
using igr::common::Fp32;
using igr::common::Fp64;
using igr::common::kNumVars;
namespace cases = igr::cases;

// --- The primitive ------------------------------------------------------

TEST(ExecSpaceUnit, ChunkPartitionsExactlyOnce) {
  for (long n : {0L, 1L, 7L, 64L, 1000L, 1001L}) {
    for (int nth : {1, 2, 3, 4, 7, 16}) {
      std::vector<int> hits(static_cast<std::size_t>(n), 0);
      long prev_end = 0;
      for (int tid = 0; tid < nth; ++tid) {
        long b, e;
        ExecSpace::chunk(n, tid, nth, b, e);
        EXPECT_EQ(b, prev_end) << "gap/overlap at tid " << tid;
        EXPECT_LE(b, e);
        prev_end = e;
        for (long i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
      }
      EXPECT_EQ(prev_end, n) << "n=" << n << " nth=" << nth;
      for (long i = 0; i < n; ++i)
        EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1)
            << "index " << i << " n=" << n << " nth=" << nth;
    }
  }
}

TEST(ExecSpaceUnit, SerialIsAOneMemberTeam) {
  const ExecSpace exec = ExecSpace::serial();
  EXPECT_EQ(exec.backend(), ExecBackend::kSerial);
  int launches = 0;
  exec.run_team([&](const ExecSpace::Team& t) {
    EXPECT_EQ(t.tid(), 0);
    EXPECT_EQ(t.size(), 1);
    t.barrier();  // must be a no-op, not a deadlock
    ++launches;
  });
  EXPECT_EQ(launches, 1);
}

TEST(ExecSpaceUnit, ForEachVisitsEveryIndexOnceAtEveryWidth) {
  const long n = 257;  // prime: exercises the remainder path
  for (int width : {0, 1, 2, 4}) {
    const ExecSpace exec(ExecBackend::kOpenMP, width);
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    exec.for_each(n, [&](long i) {
      hits[static_cast<std::size_t>(i)].fetch_add(
          1, std::memory_order_relaxed);
    });
    for (long i = 0; i < n; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " width " << width;
  }
}

TEST(ExecSpaceUnit, BarrierOrdersPhasesAcrossTheTeam) {
  // Each member publishes its tid, barriers, then checks it can see every
  // other member's publication — exactly the ordering the parity-phased
  // relaxation kernels rely on.
  for (int width : {2, 4}) {
    const ExecSpace exec(ExecBackend::kOpenMP, width);
    std::vector<std::atomic<int>> slot(static_cast<std::size_t>(width));
    for (auto& s : slot) s.store(-1, std::memory_order_relaxed);
    std::atomic<int> violations{0};
    exec.run_team([&](const ExecSpace::Team& t) {
      // An OpenMP runtime may hand out fewer members than requested; the
      // contract is "a team", not "exactly width members".
      ASSERT_GE(t.size(), 1);
      ASSERT_LE(t.size(), width);
      if (t.size() < 2) return;  // degenerate team: nothing to order
      slot[static_cast<std::size_t>(t.tid())].store(
          t.tid(), std::memory_order_relaxed);
      t.barrier();
      for (int m = 0; m < t.size(); ++m)
        if (slot[static_cast<std::size_t>(m)].load(
                std::memory_order_relaxed) != m)
          violations.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(violations.load(), 0) << "width " << width;
  }
}

// --- Solver-level bitwise invariance ------------------------------------

/// State fingerprint plus the full dt sequence of a golden-size run under
/// the given exec configuration — the two observables the exec-space
/// refactor promises not to move.
template <class Policy>
std::pair<std::uint64_t, std::vector<double>> fingerprint(
    const cases::CaseSpec& spec, const cases::RunOptions& opts) {
  cases::CaseRun<Policy> run(spec, opts);
  std::vector<double> dts;
  dts.reserve(static_cast<std::size_t>(run.target_steps()));
  for (int s = 0; s < run.target_steps(); ++s) dts.push_back(run.step());
  return {run.result().state_fnv, dts};
}

template <class Policy>
void expect_bitwise_equal(const cases::CaseSpec& spec,
                          const cases::RunOptions& a,
                          const cases::RunOptions& b, const char* label) {
  SCOPED_TRACE(label);
  const auto [fnv_a, dts_a] = fingerprint<Policy>(spec, a);
  const auto [fnv_b, dts_b] = fingerprint<Policy>(spec, b);
  ASSERT_EQ(dts_a.size(), dts_b.size());
  for (std::size_t s = 0; s < dts_a.size(); ++s)
    EXPECT_EQ(dts_a[s], dts_b[s]) << "dt diverged at step " << s;
  EXPECT_EQ(fnv_a, fnv_b) << "state fingerprint diverged";
}

/// Serial vs the default OpenMP exec space, one precision policy, on both
/// drivers: the single-domain fused step, or (`decomposed`) a 2x1x1
/// in-process run with halo exchanges between the stage pieces.  The jet
/// case covers the full kernel surface: inflow + outflow BCs, the Sigma
/// source and relaxation, the streamed flux/RK stage, the CFL fold.
template <class Policy>
void serial_vs_default(bool decomposed) {
  const auto* spec = cases::find("jet-single");
  ASSERT_NE(spec, nullptr);
  cases::RunOptions serial = cases::golden_options(*spec);
  if (decomposed) serial.ranks = {2, 1, 1};
  serial.exec = ExecBackend::kSerial;
  cases::RunOptions ambient = serial;
  ambient.exec = ExecBackend::kOpenMP;
  ambient.threads = 0;  // the historical bare-pragma schedule
  expect_bitwise_equal<Policy>(*spec, serial, ambient,
                               decomposed ? "phased 2x1x1" : "fused");
}

TEST(ExecSpaceBitwise, SerialMatchesDefaultFusedFp64) {
  serial_vs_default<Fp64>(false);
}
TEST(ExecSpaceBitwise, SerialMatchesDefaultFusedFp32) {
  serial_vs_default<Fp32>(false);
}
TEST(ExecSpaceBitwise, SerialMatchesDefaultFusedFp16) {
  serial_vs_default<Fp16x32>(false);
}
TEST(ExecSpaceBitwise, SerialMatchesDefaultFusedBf16x32) {
  serial_vs_default<Bf16x32>(false);
}
TEST(ExecSpaceBitwise, SerialMatchesDefaultPhasedFp64) {
  serial_vs_default<Fp64>(true);
}
TEST(ExecSpaceBitwise, SerialMatchesDefaultPhasedFp32) {
  serial_vs_default<Fp32>(true);
}
TEST(ExecSpaceBitwise, SerialMatchesDefaultPhasedFp16) {
  serial_vs_default<Fp16x32>(true);
}
TEST(ExecSpaceBitwise, SerialMatchesDefaultPhasedBf16x32) {
  serial_vs_default<Bf16x32>(true);
}

/// One case at widths 1/2/4 against the Serial run: state fingerprint and
/// every dt must match.
template <class Policy>
void expect_width_invariant(const char* case_name) {
  const auto* spec = cases::find(case_name);
  ASSERT_NE(spec, nullptr);
  cases::RunOptions base = cases::golden_options(*spec);
  base.exec = ExecBackend::kSerial;
  const auto [ref_fnv, ref_dts] = fingerprint<Policy>(*spec, base);
  for (int width : {1, 2, 4}) {
    SCOPED_TRACE("width " + std::to_string(width));
    cases::RunOptions o = base;
    o.exec = ExecBackend::kOpenMP;
    o.threads = width;
    const auto [fnv, dts] = fingerprint<Policy>(*spec, o);
    ASSERT_EQ(dts.size(), ref_dts.size());
    for (std::size_t s = 0; s < dts.size(); ++s)
      EXPECT_EQ(dts[s], ref_dts[s]) << "dt diverged at step " << s;
    EXPECT_EQ(fnv, ref_fnv);
  }
}

TEST(ExecSpaceBitwise, ThreadCountCannotMoveABit) {
  expect_width_invariant<Fp64>("jet-single");
}

// All-periodic BCs: the Sigma ghosts wrap on every face, and the red–black
// colour passes must not move a bit at any team width.
TEST(ExecSpaceBitwise, TaylorGreenThreadCountCannotMoveABitFp64) {
  expect_width_invariant<Fp64>("taylor-green");
}
TEST(ExecSpaceBitwise, TaylorGreenThreadCountCannotMoveABitBf16x32) {
  expect_width_invariant<Bf16x32>("taylor-green");
}

TEST(ExecSpaceBitwise, SedovPhasedSerialMatchesThreads) {
  // A second workload shape (point blast, all-outflow BCs) through the
  // phased schedule of a 2x1x1 run, Serial vs a 2-wide team per rank.
  const auto* spec = cases::find("sedov");
  ASSERT_NE(spec, nullptr);
  cases::RunOptions serial = cases::golden_options(*spec);
  serial.ranks = {2, 1, 1};
  serial.exec = ExecBackend::kSerial;
  cases::RunOptions wide = serial;
  wide.exec = ExecBackend::kOpenMP;
  wide.threads = 2;
  expect_bitwise_equal<Fp64>(*spec, serial, wide, "sedov phased");
}

TEST(ExecSpaceDistributed, PerRankTeamsBitwiseEqualSerialSingleDomain) {
  // Rank workers × a 2-wide exec space per rank: the nested-concurrency
  // configuration.  Jacobi sweeps make the decomposition exact, so the
  // whole stack must reproduce the single-domain serial-exec bits.  Under
  // the TSan tree (OpenMP off) the per-rank teams are std::thread teams —
  // this is the race check of the kernel bodies.
  const auto* spec = cases::find("taylor-green");
  ASSERT_NE(spec, nullptr);
  cases::RunOptions ref;
  ref.n = 12;
  ref.steps = 4;
  ref.jacobi_sweeps = true;
  ref.exec = ExecBackend::kSerial;
  cases::RunOptions dist = ref;
  dist.exec = ExecBackend::kOpenMP;
  dist.ranks = {1, 2, 2};
  dist.threads = 2;  // lowered into each rank's SolverConfig::exec_threads
  cases::CaseRun<Fp64> a(*spec, ref);
  cases::CaseRun<Fp64> b(*spec, dist);
  for (int s = 0; s < 4; ++s) {
    const double dt_a = a.step();
    const double dt_b = b.step();
    ASSERT_EQ(dt_a, dt_b) << "step " << s;
  }
  const auto& qa = a.sim().state();
  const auto& qb = b.sim().state();
  for (int c = 0; c < kNumVars; ++c)
    for (int k = 0; k < 12; ++k)
      for (int j = 0; j < 12; ++j)
        for (int i = 0; i < 12; ++i)
          ASSERT_EQ(qa[c](i, j, k), qb[c](i, j, k))
              << "c=" << c << " @ " << i << "," << j << "," << k;
}

// --- Whole-field passes outside the step: IC evaluation, health scan -----

using igr::common::Prim;
using igr::common::SolverConfig;
using igr::core::IgrSolver3D;
using igr::mesh::Grid;

/// The exec spaces of the width-invariance checks.  Without an OpenMP
/// runtime (the TSan tree) the OpenMP widths run on the std::thread team,
/// so the sanitizer race-checks the concurrent callbacks.
std::vector<ExecSpace> invariance_spaces() {
  return {ExecSpace::serial(), ExecSpace(ExecBackend::kOpenMP, 2),
          ExecSpace(ExecBackend::kOpenMP, 3),
          ExecSpace(ExecBackend::kOpenMP, 4)};
}

SolverConfig config_on(const ExecSpace& exec) {
  SolverConfig cfg;
  cfg.exec_backend = exec.backend();
  cfg.exec_threads = exec.threads();
  return cfg;
}

/// Varies along all three axes, so a plane or row written by the wrong
/// member (or twice) moves the fingerprint.
Prim<double> graded_ic(double x, double y, double z) {
  Prim<double> w;
  w.rho = 1.0 + 0.3 * x + 0.2 * y * y + 0.1 * z;
  w.u = 0.5 * x * z;
  w.v = -0.25 * y;
  w.w = 0.125 * (x + y + z);
  w.p = 1.0 + 0.05 * x * y * z;
  return w;
}

Grid ic_grid() {
  return Grid(20, 12, 13, {0.0, 1.0}, {0.0, 0.6}, {0.0, 0.65});
}

template <class Policy>
void expect_init_width_invariant() {
  std::uint64_t ref = 0;
  for (const auto& exec : invariance_spaces()) {
    IgrSolver3D<Policy> s(ic_grid(), config_on(exec),
                          igr::fv::BcSpec::all_periodic());
    s.init(graded_ic);
    const std::uint64_t fnv = igr::common::state_fnv1a(s.state());
    if (exec.backend() == ExecBackend::kSerial) ref = fnv;
    EXPECT_EQ(fnv, ref) << "width " << exec.threads();
  }
}

TEST(ExecSpaceInit, StateBitsAreWidthInvariantFp64) {
  expect_init_width_invariant<Fp64>();
}

TEST(ExecSpaceInit, StateBitsAreWidthInvariantFp16) {
  expect_init_width_invariant<Fp16x32>();
}

void expect_same_health(const igr::app::SolverHealth& a,
                        const igr::app::SolverHealth& b,
                        const std::string& what) {
  EXPECT_EQ(a.cells, b.cells) << what;
  EXPECT_EQ(a.nonfinite_cells, b.nonfinite_cells) << what;
  EXPECT_EQ(a.negative_density_cells, b.negative_density_cells) << what;
  EXPECT_EQ(a.nonpositive_pressure_cells, b.nonpositive_pressure_cells)
      << what;
  EXPECT_EQ(a.min_density, b.min_density) << what;
  EXPECT_EQ(a.min_pressure, b.min_pressure) << what;
}

/// Bad cells in different k-planes (so in different team chunks): a NaN,
/// two negative densities, and three nonpositive pressures of which two
/// are negative.  `set(c, i, j, k, v)` writes one global cell.
template <class Set>
void plant_bad_cells(Set&& set) {
  set(igr::common::kEnergy, 3, 4, 1, std::nan(""));
  set(igr::common::kRho, 17, 2, 5, -0.5);
  set(igr::common::kRho, 1, 11, 12, -2.0);
  set(igr::common::kMomX, 8, 6, 7, 40.0);   // kinetic energy above E
  set(igr::common::kMomY, 12, 9, 10, 60.0);
  set(igr::common::kEnergy, 5, 5, 3, 0.0);  // p == 0 at rest
  set(igr::common::kMomX, 5, 5, 3, 0.0);
  set(igr::common::kMomY, 5, 5, 3, 0.0);
  set(igr::common::kMomZ, 5, 5, 3, 0.0);
}

TEST(ExecSpaceHealth, ScanIsWidthInvariant) {
  IgrSolver3D<Fp64> s(ic_grid(), SolverConfig{},
                      igr::fv::BcSpec::all_periodic());
  s.init(graded_ic);
  auto& q = s.state();
  plant_bad_cells([&q](int c, int i, int j, int k, double v) {
    q[c](i, j, k) = v;
  });
  const igr::eos::IdealGas eos(1.4);
  const auto ref = igr::app::scan_health(q, eos, ExecSpace::serial());
  EXPECT_EQ(ref.cells, 20u * 12u * 13u);
  EXPECT_EQ(ref.nonfinite_cells, 1u);
  EXPECT_EQ(ref.negative_density_cells, 2u);
  EXPECT_EQ(ref.nonpositive_pressure_cells, 3u);
  EXPECT_EQ(ref.min_density, -2.0);
  EXPECT_LT(ref.min_pressure, 0.0);
  for (const auto& exec : invariance_spaces())
    expect_same_health(igr::app::scan_health(q, eos, exec), ref,
                       "width " + std::to_string(exec.threads()));
  // More members than planes: the empty chunks merge as no-ops.
  expect_same_health(
      igr::app::scan_health(q, eos, ExecSpace(ExecBackend::kOpenMP, 16)),
      ref, "width 16");
}

TEST(ExecSpaceDistributed, RankWorkerInitMatchesWindowedSingleDomain) {
  // Each rank evaluates the IC over its block window on its own worker,
  // inside a 2-wide exec space; the assembled state is the single-domain
  // init bit for bit.
  const Grid g = ic_grid();
  const SolverConfig cfg = config_on(ExecSpace::serial());
  IgrSolver3D<Fp64> single(g, cfg, igr::fv::BcSpec::all_periodic());
  single.init(graded_ic);
  SolverConfig rank_cfg = cfg;
  rank_cfg.exec_threads = 2;
  igr::sim::DistributedIgr<Fp64> dist(g, 2, 2, 1, rank_cfg,
                                      igr::fv::BcSpec::all_periodic());
  dist.init(graded_ic);
  EXPECT_EQ(igr::common::state_fnv1a(dist.gather()),
            igr::common::state_fnv1a(single.state()));
}

TEST(ExecSpaceDistributed, HealthOfRankBlocksEqualsSingleDomainScan) {
  using Sim = igr::app::Simulation<Fp64>;
  Sim::Params p;
  p.grid = ic_grid();
  p.bc = igr::fv::BcSpec::all_periodic();
  p.ranks = {2, 2, 1};
  p.cfg.exec_threads = 2;
  Sim sim(p);
  sim.init(graded_ic);
  auto& dist = sim.dist();
  plant_bad_cells([&dist](int c, int i, int j, int k, double v) {
    for (const int r : dist.local_ranks()) {
      const auto b = dist.comm().decomp().block(r);
      const int li = i - b.lo[0], lj = j - b.lo[1], lk = k - b.lo[2];
      if (li >= 0 && li < b.n[0] && lj >= 0 && lj < b.n[1] && lk >= 0 &&
          lk < b.n[2])
        dist.rank(r).state()[c](li, lj, lk) = v;
    }
  });

  IgrSolver3D<Fp64> single(p.grid, p.cfg, p.bc);
  single.init(graded_ic);
  auto& q = single.state();
  plant_bad_cells([&q](int c, int i, int j, int k, double v) {
    q[c](i, j, k) = v;
  });
  const auto ref = igr::app::scan_health(q, igr::eos::IdealGas(p.cfg.gamma),
                                         ExecSpace::serial());
  EXPECT_EQ(ref.negative_density_cells, 2u);
  expect_same_health(sim.health(), ref, "2x2x1 ranks");
}

// --- Blocks with fewer planes than team members --------------------------

/// FNV-1a over Sigma's interior, in (k, j, i) order.
template <class S>
std::uint64_t sigma_fnv1a(const igr::common::Field3<S>& f) {
  igr::common::Fnv1a64 h;
  for (int k = 0; k < f.nz(); ++k)
    for (int j = 0; j < f.ny(); ++j)
      for (int i = 0; i < f.nx(); ++i) {
        const double v = static_cast<double>(f(i, j, k));
        h.update(&v, sizeof v);
      }
  return h.value();
}

struct ThinRun {
  std::uint64_t state_fnv = 0, sigma_fnv = 0;
  std::vector<double> dts;
};

/// Serial against OpenMP widths 2 and 4, red–black and Jacobi: state,
/// Sigma and every dt of `run(cfg)` must match bit for bit.  A colour pass
/// hands whole planes to the members, so on these blocks most members get
/// no plane.
template <class Run>
void expect_thin_blocks_width_invariant(const Run& run) {
  for (const bool gauss_seidel : {true, false}) {
    SCOPED_TRACE(gauss_seidel ? "red-black" : "jacobi");
    SolverConfig cfg = config_on(ExecSpace::serial());
    cfg.sigma_gauss_seidel = gauss_seidel;
    const ThinRun ref = run(cfg);
    for (const int width : {2, 4}) {
      SCOPED_TRACE("width " + std::to_string(width));
      SolverConfig wide = config_on(ExecSpace(ExecBackend::kOpenMP, width));
      wide.sigma_gauss_seidel = gauss_seidel;
      const ThinRun got = run(wide);
      EXPECT_EQ(got.dts, ref.dts);
      EXPECT_EQ(got.state_fnv, ref.state_fnv);
      EXPECT_EQ(got.sigma_fnv, ref.sigma_fnv);
    }
  }
}

constexpr int kThinSteps = 3;

TEST(ExecSpaceThinBlocks, TwoPlaneDomainIsWidthInvariant) {
  expect_thin_blocks_width_invariant([](const SolverConfig& cfg) {
    IgrSolver3D<Fp64> s(Grid(8, 8, 2, {0.0, 1.0}, {0.0, 1.0}, {0.0, 0.25}),
                        cfg, igr::fv::BcSpec::all_outflow());
    s.init(graded_ic);
    ThinRun r;
    for (int n = 0; n < kThinSteps; ++n) r.dts.push_back(s.step());
    r.state_fnv = igr::common::state_fnv1a(s.state());
    r.sigma_fnv = sigma_fnv1a(s.sigma());
    return r;
  });
}

TEST(ExecSpaceThinBlocks, OnePlaneRankBlocksAreWidthInvariant) {
  // {1,1,8} at n = 8: every rank block is one plane deep (periodic z, so
  // the ghost planes come from multi-hop exchanges).
  expect_thin_blocks_width_invariant([](const SolverConfig& cfg) {
    igr::sim::DistributedIgr<Fp64> d(Grid::cube(8), 1, 1, 8, cfg,
                                     igr::fv::BcSpec::all_periodic());
    d.init(graded_ic);
    ThinRun r;
    for (int n = 0; n < kThinSteps; ++n) r.dts.push_back(d.step());
    r.state_fnv = igr::common::state_fnv1a(d.gather());
    r.sigma_fnv = sigma_fnv1a(d.gather_sigma());
    return r;
  });
}

}  // namespace
