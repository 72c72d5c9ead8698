/// Tests for the application layer (jet configurations, Simulation driver)
/// and the I/O substrate (VTK + CSV writers), plus the step meters and
/// config.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "app/jet_config.hpp"
#include "app/simulation.hpp"
#include "common/cli.hpp"
#include "io/csv_writer.hpp"
#include "io/vtk_writer.hpp"

namespace {

using igr::app::JetConfig;
using igr::app::SchemeKind;
using igr::app::Simulation;
using igr::common::Fp16x32;
using igr::common::Fp64;
using igr::common::SolverConfig;
using igr::mesh::Grid;

TEST(JetConfig, SuperHeavyHasThirtyThreeEngines) {
  const auto j = igr::app::super_heavy_33();
  EXPECT_EQ(j.centers.size(), 33u);  // 3 + 10 + 20, Fig. 1 layout
}

TEST(JetConfig, EnginesDoNotOverlap) {
  const auto j = igr::app::super_heavy_33();
  for (std::size_t a = 0; a < j.centers.size(); ++a) {
    for (std::size_t b = a + 1; b < j.centers.size(); ++b) {
      const double dx = j.centers[a][0] - j.centers[b][0];
      const double dy = j.centers[a][1] - j.centers[b][1];
      EXPECT_GT(std::sqrt(dx * dx + dy * dy), 2.0 * j.nozzle_radius)
          << a << " vs " << b;
    }
  }
}

TEST(JetConfig, EnginesInsideUnitCrossSection) {
  for (const auto& cfg : {igr::app::single_engine(),
                          igr::app::three_engine_row(),
                          igr::app::super_heavy_33()}) {
    for (const auto& c : cfg.centers) {
      EXPECT_GT(c[0] - cfg.nozzle_radius, 0.0);
      EXPECT_LT(c[0] + cfg.nozzle_radius, 1.0);
      EXPECT_GT(c[1] - cfg.nozzle_radius, 0.0);
      EXPECT_LT(c[1] + cfg.nozzle_radius, 1.0);
    }
  }
}

TEST(JetConfig, JetStateIsMachTen) {
  const auto j = igr::app::single_engine();
  const auto w = j.jet_state();
  const double c = std::sqrt(j.gamma * w.p / w.rho);
  EXPECT_NEAR(w.w / c, 10.0, 1e-12);
  EXPECT_EQ(w.u, 0.0);
}

TEST(JetConfig, BcHasPatchesOnZLowOnly) {
  const auto j = igr::app::three_engine_row();
  const auto bc = j.make_bc();
  using igr::mesh::Face;
  EXPECT_EQ(bc.face_kind(Face::kZLo), igr::fv::BcKind::kInflowPatches);
  EXPECT_EQ(bc.patches[static_cast<std::size_t>(Face::kZLo)].size(), 3u);
  EXPECT_EQ(bc.face_kind(Face::kZHi), igr::fv::BcKind::kOutflow);
}

TEST(JetConfig, NoiseSeedingPerturbsDensity) {
  const auto j = igr::app::single_engine();
  const auto ic0 = j.initial_condition(0.0);
  const auto ic1 = j.initial_condition(0.01);
  const auto w0 = ic0(0.3, 0.4, 0.2);
  const auto w1 = ic1(0.3, 0.4, 0.2);
  EXPECT_EQ(w0.rho, 1.0);
  EXPECT_NE(w1.rho, w0.rho);
  EXPECT_NEAR(w1.rho, 1.0, 0.02);
}

/// Simulation::step() meters every step, and the difference of two
/// snapshots covers exactly the steps between them — for the single-domain
/// IGR and WENO solvers and an in-process 2x1x1 decomposed run.  Only the
/// single-domain IGR solver carries a phase breakdown.
TEST(Simulation, StepMetersCountStepsAndWindows) {
  struct Layout {
    SchemeKind scheme;
    std::array<int, 3> ranks;
  };
  for (const Layout& l : {Layout{SchemeKind::kIgr, {1, 1, 1}},
                          Layout{SchemeKind::kBaselineWeno, {1, 1, 1}},
                          Layout{SchemeKind::kIgr, {2, 1, 1}}}) {
    const bool igr = l.scheme == SchemeKind::kIgr;
    const bool decomposed = l.ranks[0] > 1;
    SCOPED_TRACE(std::string(igr ? "igr" : "weno") +
                 (decomposed ? " 2x1x1" : " 1x1x1"));
    typename Simulation<Fp64>::Params params;
    params.grid = Grid(16, 8, 8, {0, 1}, {0, 0.5}, {0, 0.5});
    params.cfg.phase_timing = true;
    params.bc = igr::fv::BcSpec::all_periodic();
    params.scheme = l.scheme;
    params.ranks = l.ranks;
    Simulation<Fp64> sim(params);
    sim.init([](double x, double, double) {
      return igr::common::Prim<double>{1.0 + 0.2 * std::sin(6.283185307 * x),
                                       0.5, 0.0, 0.0, 1.0};
    });
    EXPECT_EQ(sim.meters().steps, 0u);
    EXPECT_EQ(sim.grind_ns(), 0.0);

    sim.run_steps(2);
    const auto a = sim.meters();
    sim.run_steps(3);
    const auto b = sim.meters();
    const auto w = b - a;
    EXPECT_EQ(a.steps, 2u);
    EXPECT_EQ(b.steps, 5u);
    EXPECT_EQ(w.steps, 3u);
    EXPECT_GT(w.wall_ns, 0);
    EXPECT_EQ(a.wall_ns + w.wall_ns, b.wall_ns);
    EXPECT_GT(b.last_step_t0_ns, a.last_step_t0_ns);
    EXPECT_EQ(w.last_step_t0_ns, b.last_step_t0_ns);
    const std::size_t cells = params.grid.cells();
    EXPECT_GT(w.grind_ns(cells), 0.0);
    EXPECT_DOUBLE_EQ(sim.grind_ns(), b.grind_ns(cells));

    EXPECT_EQ(w.has_phases, igr && !decomposed);
    if (w.has_phases) {
      double phase_s = 0.0;
      for (const double s : w.phase_s) phase_s += s;
      EXPECT_GT(phase_s, 0.0);
    }
    EXPECT_EQ(w.sigma_sweeps > 0, igr);
    EXPECT_EQ(w.wire_bytes > 0, decomposed);
    EXPECT_EQ(w.halo_wait_epochs[0] > 0, decomposed);
  }
}

TEST(Simulation, IgrJetRunsStably) {
  const auto j = igr::app::single_engine();
  typename Simulation<Fp64>::Params params;
  params.grid = Grid(16, 16, 24, {0, 1}, {0, 1}, {0, 1.5});
  params.cfg = j.solver_config();
  params.bc = j.make_bc();
  params.scheme = SchemeKind::kIgr;
  Simulation<Fp64> sim(params);
  sim.init(j.initial_condition());
  sim.run_steps(10);
  const auto d = sim.diagnostics();
  EXPECT_GT(d.max_mach, 1.0);       // the jet has entered the domain
  EXPECT_GT(d.min_density, 0.0);    // positivity held
  EXPECT_TRUE(std::isfinite(d.kinetic_energy));
  EXPECT_GT(sim.grind_ns(), 0.0);
}

TEST(Simulation, BaselineJetRunsStablyFp64) {
  const auto j = igr::app::single_engine();
  typename Simulation<Fp64>::Params params;
  params.grid = Grid(12, 12, 16, {0, 1}, {0, 1}, {0, 1.5});
  params.cfg = j.solver_config();
  params.bc = j.make_bc();
  params.scheme = SchemeKind::kBaselineWeno;
  Simulation<Fp64> sim(params);
  sim.init(j.initial_condition());
  sim.run_steps(5);
  EXPECT_GT(sim.diagnostics().max_mach, 0.5);
}

TEST(Simulation, BaselineRejectsFp16) {
  // §4.3: WENO/HLLC is numerically unstable below FP64; the API forbids it.
  typename Simulation<Fp16x32>::Params params;
  params.scheme = SchemeKind::kBaselineWeno;
  EXPECT_THROW(Simulation<Fp16x32>{params}, std::invalid_argument);
}

TEST(Simulation, Fp16IgrJetStaysFinite) {
  const auto j = igr::app::single_engine();
  typename Simulation<Fp16x32>::Params params;
  params.grid = Grid(12, 12, 16, {0, 1}, {0, 1}, {0, 1.5});
  params.cfg = j.solver_config();
  params.bc = j.make_bc();
  Simulation<Fp16x32> sim(params);
  sim.init(j.initial_condition(0.005));
  sim.run_steps(8);
  const auto d = sim.diagnostics();
  EXPECT_GT(d.min_density, 0.0);
  EXPECT_TRUE(std::isfinite(d.max_mach));
}

TEST(VtkWriter, WritesWellFormedFile) {
  const auto path = std::filesystem::temp_directory_path() / "igr_test.vtk";
  const auto g = Grid::cube(4);
  igr::common::StateField3<double> q(4, 4, 4, 3);
  for (int c = 0; c < 5; ++c) q[c].fill(c == 0 || c == 4 ? 1.0 : 0.0);
  igr::eos::IdealGas eos(1.4);
  igr::io::VtkWriter w(g);
  w.open(path.string());
  w.add_state(q, eos);
  w.close();

  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "# vtk DataFile Version 3.0");
  int scalars = 0;
  while (std::getline(in, line))
    if (line.rfind("SCALARS", 0) == 0) ++scalars;
  EXPECT_EQ(scalars, 3);
  std::filesystem::remove(path);
}

TEST(CsvWriter, WritesHeaderAndRows) {
  const auto path = std::filesystem::temp_directory_path() / "igr_test.csv";
  {
    igr::io::CsvWriter csv(path.string(), {"x", "rho"});
    csv.row({0.5, 1.25});
    csv.row({1.5, 0.75});
    EXPECT_EQ(csv.rows_written(), 2u);
    EXPECT_THROW(csv.row({1.0}), std::invalid_argument);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,rho");
  std::getline(in, line);
  EXPECT_EQ(line, "0.5,1.25");
  std::filesystem::remove(path);
}

TEST(Config, ValidationCatchesBadInputs) {
  SolverConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  cfg.gamma = 0.9;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.cfl = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.mu = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.sigma_sweeps = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.pressure_floor = -1e-3;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

/// `--n <v>` through the shared CLI cursor's int_value(1).
int parse_n(const char* v) {
  const char* argv[] = {"prog", "--n", v};
  igr::common::cli::Args args("prog", 3, const_cast<char**>(argv));
  args.next();
  return args.int_value(1);
}

TEST(CliDeathTest, IntValueRejectsValuesAnIntCannotHold) {
  EXPECT_EQ(parse_n("16"), 16);
  EXPECT_EQ(parse_n("2147483647"), 2147483647);
  // 4294967312 = 2^32 + 16 would wrap to 16.
  EXPECT_EXIT((void)parse_n("4294967312"), ::testing::ExitedWithCode(2),
              "allowed range \\[1, 2147483647\\]");
  EXPECT_EXIT((void)parse_n("0"), ::testing::ExitedWithCode(2),
              "allowed range");
}

namespace cli = igr::common::cli;

TEST(CliDeathTest, RanksRejectFieldsAndCountsAnIntCannotHold) {
  const auto layout = cli::parse_ranks("prog", "--ranks", "2,3,4");
  EXPECT_EQ(layout.layout, (std::array<int, 3>{2, 3, 4}));
  EXPECT_EQ(layout.count, 24);
  EXPECT_FALSE(layout.balanced);
  const auto bare = cli::parse_ranks("prog", "--ranks", "8");
  EXPECT_EQ(bare.count, 8);
  EXPECT_TRUE(bare.balanced);
  EXPECT_EQ(cli::parse_ranks("prog", "--ranks", "2147483647").count,
            2147483647);
  // 4294967297 = 2^32 + 1 would wrap to one rank.
  EXPECT_EXIT((void)cli::parse_ranks("prog", "--ranks", "4294967297"),
              ::testing::ExitedWithCode(2), "each in \\[1, 2147483647\\]");
  EXPECT_EXIT((void)cli::parse_ranks("prog", "--ranks", "1,4294967297,1"),
              ::testing::ExitedWithCode(2), "each in \\[1, 2147483647\\]");
  EXPECT_EXIT((void)cli::parse_ranks("prog", "--ranks", "65536,65536,1"),
              ::testing::ExitedWithCode(2), "rank count above 2147483647");
  EXPECT_EXIT((void)cli::parse_ranks("prog", "--ranks", "2,2"),
              ::testing::ExitedWithCode(2), "rx,ry,rz or N");
  EXPECT_EXIT((void)cli::parse_ranks("prog", "--ranks", "2,2,1,4"),
              ::testing::ExitedWithCode(2), "rx,ry,rz or N");
}

TEST(CliDeathTest, IntListRejectsElementsAnIntCannotHold) {
  EXPECT_EQ(cli::parse_int_list("prog", "--threads", "1,2147483647"),
            (std::vector<int>{1, 2147483647}));
  EXPECT_EXIT((void)cli::parse_int_list("prog", "--threads", "1,4294967297"),
              ::testing::ExitedWithCode(2), "bad --threads list");
}

TEST(CliDeathTest, DoubleRejectsNanAndInf) {
  EXPECT_EQ(cli::parse_double("prog", "--cfl-scale", "0.5"), 0.5);
  for (const char* v : {"nan", "inf", "-inf", "1e999"})
    EXPECT_EXIT((void)cli::parse_double("prog", "--cfl-scale", v),
                ::testing::ExitedWithCode(2), "not finite")
        << v;
}

TEST(Simulation, VtkOutputFromDriver) {
  const auto path = std::filesystem::temp_directory_path() / "igr_sim.vtk";
  const auto j = igr::app::single_engine();
  typename Simulation<Fp64>::Params params;
  params.grid = Grid(8, 8, 8, {0, 1}, {0, 1}, {0, 1});
  params.cfg = j.solver_config();
  params.bc = j.make_bc();
  Simulation<Fp64> sim(params);
  sim.init(j.initial_condition());
  sim.run_steps(2);
  sim.write_vtk(path.string());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_GT(std::filesystem::file_size(path), 1000u);
  std::filesystem::remove(path);
}

TEST(Simulation, DecomposedRunMatchesSingleDomainThroughFacade) {
  // The app-level `ranks` path: same jet, 1 rank vs 2x2x1 ranks, Jacobi
  // sweeps -> the gathered state must be bitwise identical, and the facade
  // must report diagnostics off the gathered field.
  const auto jet = igr::app::single_engine();
  Simulation<Fp64>::Params p;
  p.grid = Grid(12, 12, 18, {0.0, 1.0}, {0.0, 1.0}, {0.0, 1.5});
  p.cfg = jet.solver_config();
  p.cfg.sigma_gauss_seidel = false;
  p.bc = jet.make_bc();

  Simulation<Fp64> single(p);
  p.ranks = {2, 2, 1};
  Simulation<Fp64> dist(p);
  ASSERT_TRUE(dist.distributed());
  single.init(jet.initial_condition(0.005));
  dist.init(jet.initial_condition(0.005));

  for (int s = 0; s < 3; ++s) {
    const double dt_s = single.step();
    const double dt_d = dist.step();
    ASSERT_EQ(dt_s, dt_d) << "step " << s;
  }
  const auto& qs = single.state();
  const auto& qd = dist.state();
  for (int c = 0; c < igr::common::kNumVars; ++c)
    for (int k = 0; k < p.grid.nz(); ++k)
      for (int j = 0; j < p.grid.ny(); ++j)
        for (int i = 0; i < p.grid.nx(); ++i)
          ASSERT_EQ(qs[c](i, j, k), qd[c](i, j, k))
              << c << " " << i << " " << j << " " << k;
  EXPECT_GT(dist.dist().comm().bytes_exchanged(), 0u);

  // Decomposed VTK output goes through the gathered state + Sigma.
  const std::string path = "decomposed_jet_test.vtk";
  dist.write_vtk(path);
  EXPECT_GT(std::filesystem::file_size(path), 1000u);
  std::filesystem::remove(path);
}

TEST(Simulation, DecomposedBaselineIsRejected) {
  Simulation<Fp64>::Params p;
  p.grid = Grid::cube(12);
  p.scheme = SchemeKind::kBaselineWeno;
  p.ranks = {2, 1, 1};
  EXPECT_THROW(Simulation<Fp64> s(std::move(p)), std::invalid_argument);
}

}  // namespace
