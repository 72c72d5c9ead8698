/// \file bench_scaling.cpp
/// *Executed* strong and weak scaling of the rank-parallel distributed IGR
/// driver on the Mach-10 single-jet workload (§6.2) — the companion to the
/// fig6/fig7 scaling *model* reproductions, which predict; this harness
/// measures.  Each rank runs on its own worker thread with a pinned
/// single-thread OpenMP team, so speedup isolates rank parallelism (the MPI
/// analogue: one process per rank), with the halo pipeline active.  Emits JSON like bench_grind; every scaling PR checks the result
/// in as BENCH_<name>_scaling.json (see PERF.md).
///
/// Usage:
///   bench_scaling [--smoke] [--n N] [--weak-n M] [--ranks 1,2,4,8]
///                 [--warmup W] [--steps S] [--mode strong|weak|both]
///                 [--threads-per-rank T] [--label NAME] [--out PATH]
///                 [--precision fp64|fp32|fp16x32|bf16x32]
///                 [--transport inproc|tcp]
///
/// Halos move at storage width, so the halo_mb_per_step column falls with
/// --precision (16-bit storage moves 2-byte halos).
///
/// --transport tcp runs each rank as its own Comm endpoint exchanging over
/// loopback sockets (one endpoint thread per rank in this process — the
/// same wire path igr_launch drives with real processes), measuring the
/// framing/socket overhead against the shared-memory baseline.
///
/// Strong: fixed N x N x 1.5N global jet, growing rank counts.  The 1-rank
/// point is the single-domain solver, as a one-rank app::Simulation runs it.
/// Weak:   fixed M^3 cells per rank, domain resolution grows with ranks.
///
/// Interpreting results: rank speedup can only materialize when the host
/// exposes enough cores (hardware_concurrency is recorded in the JSON); on
/// a single-core container all rank counts time-share one core and the
/// curve measures scheduling overhead instead.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "app/jet_config.hpp"
#include "app/simulation.hpp"
#include "common/cli.hpp"
#include "mesh/decomp.hpp"

namespace {

using namespace igr;

struct Point {
  std::string mode;
  int ranks = 1;
  std::array<int, 3> layout{1, 1, 1};
  std::array<int, 3> grid{0, 0, 0};
  double time_per_step_s = 0.0;
  double grind_ns = 0.0;
  double speedup = 1.0;     ///< strong: t_base/t at equal total work
  double efficiency = 1.0;  ///< strong: speedup/ideal; weak: t_base/t
  double halo_mb_per_step = 0.0;
  /// Halo WAIT (the acquire spin in Comm::complete_axis, excluding
  /// pack/unpack) — mean per rank per step, summed over the team.
  double halo_wait_ms_per_step = 0.0;
  double halo_wait_epochs_per_step = 0.0;  ///< completed epochs, per rank
};

common::SolverConfig scaling_cfg() {
  auto cfg = app::single_engine().solver_config();
  // Jacobi sweeps: decomposition-exact, so every rank count performs
  // identical arithmetic on identical bits — the clean scaling comparison
  // (and the mode whose equivalence the test suite enforces).
  cfg.sigma_gauss_seidel = false;
  return cfg;
}

/// Rendezvous scratch for the tcp transport's endpoint threads, unique per
/// process and per run so no endpoint can dial a port file another run
/// left behind.  The caller removes it once the run's endpoints are done.
std::string fresh_rendezvous_dir() {
  static int counter = 0;
  long pid = 0;
#if defined(__unix__) || defined(__APPLE__)
  pid = static_cast<long>(::getpid());
#endif
  const std::string dir = "bench_scaling_rdv_" + std::to_string(pid) + "_" +
                          std::to_string(++counter);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  return dir;
}

/// Time `steps` CFL steps of the decomposed jet; returns seconds per step.
template <class Policy>
Point run_case_t(const char* mode, const mesh::Grid& grid,
                 std::array<int, 3> layout, int warmup, int steps,
                 int threads_per_rank, sim::TransportSpec::Kind transport) {
  const auto jet = app::single_engine();
  const int R = layout[0] * layout[1] * layout[2];
  Point p;
  p.mode = mode;
  p.ranks = R;
  p.layout = layout;
  p.grid = {grid.nx(), grid.ny(), grid.nz()};

  /// Drive one endpoint: the whole team in-process (rank < 0), or exactly
  /// `rank` over the tcp wire.  Rank 0 (or the in-process endpoint) fills
  /// the timing columns; halo traffic is summed over all endpoints.  The
  /// timed window is the difference of two step-meter snapshots, which
  /// carry the wall time and the halo bytes and wait alike.
  const auto drive = [&](int rank, const std::string& dir) {
    typename app::Simulation<Policy>::Params prm;
    prm.grid = grid;
    prm.cfg = scaling_cfg();
    prm.cfg.exec_threads = threads_per_rank;
    prm.bc = jet.make_bc();
    prm.ranks = layout;
    if (rank >= 0) {
      prm.dist.transport.kind = sim::TransportSpec::Kind::kTcp;
      prm.dist.transport.world = R;
      prm.dist.transport.rank = rank;
      prm.dist.transport.dir = dir;
    }
    app::Simulation<Policy> run(prm);
    run.init(jet.initial_condition(0.005));
    for (int s = 0; s < warmup; ++s) run.step();
    // Endpoints start the timed window together.
    if (run.distributed()) run.dist().comm().barrier();
    const auto m0 = run.meters();
    for (int s = 0; s < steps; ++s) run.step();
    const auto w = run.meters() - m0;
    double bytes = static_cast<double>(w.wire_bytes);
    double wait_ns = 0.0, wait_epochs = 0.0;
    for (std::size_t a = 0; a < 3; ++a) {
      wait_ns += static_cast<double>(w.halo_wait_ns[a]);
      wait_epochs += static_cast<double>(w.halo_wait_epochs[a]);
    }
    if (run.distributed()) {
      const auto& comm = run.dist().comm();
      bytes = comm.allreduce_sum_global(bytes);
      wait_ns = comm.allreduce_sum_global(wait_ns);
      wait_epochs = comm.allreduce_sum_global(wait_epochs);
    }
    if (rank <= 0) {
      p.time_per_step_s = 1.0e-9 * static_cast<double>(w.wall_ns) / steps;
      p.grind_ns = w.grind_ns(grid.cells());
      p.halo_mb_per_step = 1.0e-6 * bytes / steps;
      p.halo_wait_ms_per_step = 1.0e-6 * wait_ns / (steps * R);
      p.halo_wait_epochs_per_step = wait_epochs / (static_cast<double>(steps) * R);
    }
  };

  if (transport == sim::TransportSpec::Kind::kTcp) {
    const std::string dir = fresh_rendezvous_dir();
    std::vector<std::thread> endpoints;
    endpoints.reserve(static_cast<std::size_t>(R));
    for (int r = 0; r < R; ++r)
      endpoints.emplace_back([&, r] { drive(r, dir); });
    for (auto& e : endpoints) e.join();
    std::filesystem::remove_all(dir);
  } else {
    drive(-1, "");
  }

  std::printf("  %-6s %2d ranks (%dx%dx%d)  %3dx%3dx%3d  %9.4f ms/step  "
              "%8.1f ns/cell/step  %8.2f MB halo/step  %7.3f ms wait/step\n",
              mode, p.ranks, layout[0], layout[1], layout[2], p.grid[0],
              p.grid[1], p.grid[2], 1e3 * p.time_per_step_s, p.grind_ns,
              p.halo_mb_per_step, p.halo_wait_ms_per_step);
  std::fflush(stdout);
  return p;
}

Point run_case(const char* mode, const mesh::Grid& grid,
               std::array<int, 3> layout, int warmup, int steps,
               int threads_per_rank, const std::string& precision,
               sim::TransportSpec::Kind transport) {
  if (precision == "fp32")
    return run_case_t<common::Fp32>(mode, grid, layout, warmup, steps,
                                    threads_per_rank, transport);
  if (precision == "fp16x32")
    return run_case_t<common::Fp16x32>(mode, grid, layout, warmup, steps,
                                       threads_per_rank, transport);
  if (precision == "bf16x32")
    return run_case_t<common::Bf16x32>(mode, grid, layout, warmup, steps,
                                       threads_per_rank, transport);
  return run_case_t<common::Fp64>(mode, grid, layout, warmup, steps,
                                  threads_per_rank, transport);
}

void write_json(const std::string& path, const std::string& label, int warmup,
                int steps, int threads_per_rank,
                const std::string& precision, const std::string& transport,
                const std::vector<Point>& pts) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_scaling: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"name\": \"%s\",\n", label.c_str());
  std::fprintf(f, "  \"workload\": \"mach10_single_jet_distributed\",\n");
  std::fprintf(f, "  \"metric\": \"time_per_step_s\",\n");
  std::fprintf(f, "  \"sigma_sweeps\": \"jacobi\",\n");
  std::fprintf(f, "  \"precision\": \"%s\",\n", precision.c_str());
  std::fprintf(f, "  \"transport\": \"%s\",\n", transport.c_str());
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"threads_per_rank\": %d,\n", threads_per_rank);
  std::fprintf(f, "  \"warmup_steps\": %d,\n", warmup);
  std::fprintf(f, "  \"timed_steps\": %d,\n", steps);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto& p = pts[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"ranks\": %d, "
                 "\"layout\": [%d, %d, %d], \"grid\": [%d, %d, %d], "
                 "\"time_per_step_s\": %.6e, "
                 "\"grind_ns_per_cell_step\": %.2f, \"speedup\": %.3f, "
                 "\"efficiency\": %.3f, \"halo_mb_per_step\": %.3f, "
                 "\"halo_wait_ms_per_step\": %.4f, "
                 "\"halo_wait_epochs_per_step\": %.2f}%s\n",
                 p.mode.c_str(), p.ranks, p.layout[0], p.layout[1],
                 p.layout[2], p.grid[0], p.grid[1], p.grid[2],
                 p.time_per_step_s, p.grind_ns, p.speedup, p.efficiency,
                 p.halo_mb_per_step, p.halo_wait_ms_per_step,
                 p.halo_wait_epochs_per_step, (i + 1 < pts.size()) ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  namespace ccli = igr::common::cli;
  int n = 32, weak_n = 16, warmup = 1, steps = 3, threads_per_rank = 1;
  std::vector<int> rank_counts{1, 2, 4, 8};
  std::string out = "BENCH_scaling.json";
  std::string label = "scaling";
  std::string mode = "both";
  std::string precision = "fp64";
  std::string transport = "inproc";
  bool smoke = false;
  ccli::Args args("bench_scaling", argc, argv);
  while (args.next()) {
    if (args.is("--smoke")) {
      smoke = true;
    } else if (args.is("--n")) {
      n = args.int_value(1);
    } else if (args.is("--weak-n")) {
      weak_n = args.int_value(1);
    } else if (args.is("--ranks")) {
      rank_counts = args.int_list_value(1);
    } else if (args.is("--warmup")) {
      warmup = args.int_value(0);
    } else if (args.is("--steps")) {
      steps = args.int_value(1);
    } else if (args.is("--threads-per-rank")) {
      threads_per_rank = args.int_value(0);
    } else if (args.is("--mode")) {
      constexpr const char* kModes[] = {"strong", "weak", "both"};
      mode = kModes[args.choice_value({"strong", "weak", "both"})];
    } else if (args.is("--precision")) {
      constexpr const char* kPrec[] = {"fp64", "fp32", "fp16x32", "bf16x32"};
      precision =
          kPrec[args.choice_value({"fp64", "fp32", "fp16x32", "bf16x32"})];
    } else if (args.is("--transport")) {
      constexpr const char* kTp[] = {"inproc", "tcp"};
      transport = kTp[args.choice_value({"inproc", "tcp"})];
    } else if (args.is("--label")) {
      label = args.value();
    } else if (args.is("--out")) {
      out = args.value();
    } else {
      args.die(std::string("unknown arg ") + args.flag());
    }
  }
  if (smoke) {
    n = 16;
    weak_n = 8;
    warmup = 1;
    steps = 2;
    rank_counts = {1, 2, 4};
    if (label == "scaling") label = "scaling_smoke";
  }
  const auto transport_kind = sim::TransportSpec::parse_kind(transport);
  if (n < 8 || weak_n < 4 || steps < 1 || warmup < 0 || threads_per_rank < 0) {
    std::fprintf(stderr, "bench_scaling: need --n >= 8, --weak-n >= 4, "
                         "--steps >= 1, --warmup >= 0\n");
    return 2;
  }

  std::printf("igrflow bench_scaling: n=%d weak-n=%d warmup=%d steps=%d "
              "threads/rank=%d precision=%s transport=%s hw_concurrency=%u\n",
              n, weak_n, warmup, steps, threads_per_rank, precision.c_str(),
              transport.c_str(),
              std::thread::hardware_concurrency());
  std::vector<Point> pts;

  if (mode != "weak") {
    std::printf("strong scaling (fixed %dx%dx%d jet):\n", n, n, n + n / 2);
    const mesh::Grid grid(n, n, n + n / 2, {0.0, 1.0}, {0.0, 1.0},
                          {0.0, 1.5});
    double t_base = 0.0;
    int r_base = 1;
    for (std::size_t i = 0; i < rank_counts.size(); ++i) {
      const int R = rank_counts[i];
      auto p = run_case("strong", grid, mesh::Decomp::balanced_layout(R),
                        warmup, steps, threads_per_rank, precision,
                        transport_kind);
      if (i == 0) {
        t_base = p.time_per_step_s;
        r_base = R;
      }
      p.speedup = t_base / p.time_per_step_s;
      p.efficiency = p.speedup * r_base / R;
      pts.push_back(p);
    }
    const auto& last = pts.back();
    std::printf("  -> %.2fx speedup at %d ranks (%.0f%% efficiency)\n",
                last.speedup, last.ranks, 100.0 * last.efficiency);
  }

  if (mode != "strong") {
    std::printf("weak scaling (fixed %d^3 cells per rank):\n", weak_n);
    double t_base = 0.0;
    for (std::size_t i = 0; i < rank_counts.size(); ++i) {
      const int R = rank_counts[i];
      const auto lay = mesh::Decomp::balanced_layout(R);
      const mesh::Grid grid(weak_n * lay[0], weak_n * lay[1],
                            weak_n * lay[2], {0.0, 1.0}, {0.0, 1.0},
                            {0.0, 1.0});
      auto p = run_case("weak", grid, lay, warmup, steps, threads_per_rank,
                        precision, transport_kind);
      if (i == 0) t_base = p.time_per_step_s;
      p.speedup = t_base / p.time_per_step_s;
      p.efficiency = p.speedup;  // fixed work per rank: ideal is flat time
      pts.push_back(p);
    }
    const auto& last = pts.back();
    std::printf("  -> %.0f%% weak efficiency at %d ranks\n",
                100.0 * last.efficiency, last.ranks);
  }

  write_json(out, label, warmup, steps, threads_per_rank, precision,
             transport, pts);
  return 0;
}
