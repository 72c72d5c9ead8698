#pragma once
/// \file simulation.hpp
/// High-level driver tying grid + boundary conditions + scheme choice +
/// diagnostics + output together — the entry point example applications use.

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "app/health.hpp"
#include "baseline/weno_hllc_solver3d.hpp"
#include "core/igr_solver3d.hpp"
#include "io/vtk_writer.hpp"
#include "sim/distributed_igr.hpp"

namespace igr::app {

enum class SchemeKind { kIgr, kBaselineWeno };

/// Point diagnostics over the flow field.
struct FlowDiagnostics {
  double max_mach = 0.0;  ///< Over cells with positive pressure.
  double min_density = 0.0;
  double max_density = 0.0;
  double min_pressure = 0.0;
  double kinetic_energy = 0.0;  ///< Integrated 1/2 rho |u|^2.
  double total_mass = 0.0;      ///< Integrated rho (conserved on closed domains).
  double total_energy = 0.0;    ///< Integrated E (conserved on closed domains).
  /// Integrated |curl u|^2 — the vortical-decay metric of the Taylor–Green
  /// and Kelvin–Helmholtz cases.  Central differences on interior cells,
  /// one-sided at the domain faces.
  double enstrophy = 0.0;
  /// Cells whose pressure is non-positive (start-up transients at an
  /// impulsively started high-Mach inflow); excluded from max_mach.
  std::size_t nonpositive_pressure_cells = 0;
};

/// Cumulative step meters of one Simulation: the one timing source behind
/// the JSONL step stream, the trace `step` span and its phase children,
/// cases::RunResult, and bench_grind.  Simulation::step() reads the clock
/// once before and once after each step; the other meters are counters the
/// solvers and the communicator keep anyway.  Subtracting an earlier
/// snapshot gives the numbers for the window between them.
struct StepMeters {
  std::uint64_t steps = 0;
  std::int64_t wall_ns = 0;  ///< Wall time spent inside Simulation::step().
  /// common::telemetry::now_ns() at the start of the latest step (-1 before
  /// the first); a window difference keeps the later snapshot's value.
  std::int64_t last_step_t0_ns = -1;
  /// phase_s is populated: the single-domain IGR solver with
  /// cfg.phase_timing on.  Decomposed runs carry no phases.
  bool has_phases = false;
  std::array<double, common::PhaseProfile::kNumPhases> phase_s{};
  std::uint64_t sigma_sweeps = 0;
  /// Communicator meters of a decomposed run (zero otherwise).
  std::array<std::uint64_t, 3> halo_wait_ns{};
  std::array<std::uint64_t, 3> halo_wait_epochs{};
  std::uint64_t wire_bytes = 0;

  /// The window from `earlier` to this snapshot.
  [[nodiscard]] StepMeters operator-(const StepMeters& earlier) const;
  /// Nanoseconds per cell per step over the metered steps (0 when none).
  [[nodiscard]] double grind_ns(std::size_t cells) const;
};

template <class Policy>
class Simulation {
 public:
  using S = typename Policy::storage_t;

  struct Params {
    mesh::Grid grid = mesh::Grid::cube(32);
    common::SolverConfig cfg{};
    fv::BcSpec bc{};
    SchemeKind scheme = SchemeKind::kIgr;
    fv::ReconScheme recon = fv::ReconScheme::kFifth;
    /// Rank layout of the decomposed run ({1,1,1} = single-domain).  More
    /// than one rank steps the domain through the rank-parallel
    /// sim::DistributedIgr driver (IGR scheme only); `dist` tunes its
    /// execution.
    std::array<int, 3> ranks{1, 1, 1};
    sim::DistOptions dist{};
  };

  explicit Simulation(Params params);

  /// Set the initial state.  `prim` is evaluated concurrently (across the
  /// exec-space team and the rank workers), so it must be a pure function
  /// of (x, y, z) — see core::PrimFn.
  void init(const core::PrimFn& prim);

  /// One CFL step; returns dt.  The only place a step is timed (meters()).
  double step();
  /// Run `n` steps; returns simulated time advanced.
  double run_steps(int n);
  /// Run until simulated time `t_end`.
  void run_until(double t_end);

  [[nodiscard]] double time() const;
  /// Cumulative meters of every step() so far.
  [[nodiscard]] StepMeters meters() const;
  /// Wall ns per global cell per step over every step() so far.
  [[nodiscard]] double grind_ns() const;
  /// Phase profile of a solver this process steps: the single-domain
  /// solver, or the first local rank's solver of a decomposed run (one rank
  /// per process under tcp, so there it is *the* local solver).  Null for
  /// the baseline scheme; populated only when cfg.phase_timing is on.
  [[nodiscard]] const common::PhaseProfile* local_phase_profile() const;
  /// Interior cells of the solver local_phase_profile() describes (the
  /// normalizer for its ns-per-cell-per-step breakdown).
  [[nodiscard]] std::size_t local_phase_cells() const;
  /// Total Sigma relaxation sweeps executed by this process's solvers
  /// (always maintained; see core::IgrSolver3D::sigma_sweeps_done).
  [[nodiscard]] std::uint64_t sigma_sweeps_done() const;
  [[nodiscard]] std::size_t memory_bytes() const;
  [[nodiscard]] FlowDiagnostics diagnostics() const;
  /// Cheap NaN/Inf/negative-density/pressure scan of the global state —
  /// the guard signal for rollback/retry (see app/health.hpp for the
  /// health policy).  Runs on the team that owns the field: the solver's
  /// exec space, or each rank block on its worker for a decomposed run
  /// (merged without gathering; a collective under a multi-process
  /// transport).
  [[nodiscard]] SolverHealth health() const;
  /// Global conservative state.  For a decomposed run this gathers the rank
  /// blocks into a cached global field (refreshed after a step).
  [[nodiscard]] const common::StateField3<S>& state() const;
  [[nodiscard]] const mesh::Grid& grid() const { return params_.grid; }
  [[nodiscard]] SchemeKind scheme() const { return params_.scheme; }
  [[nodiscard]] bool distributed() const { return dist_ != nullptr; }
  /// True when the decomposed driver runs one rank per OS process (tcp
  /// transport).  Global reads (state/diagnostics/vtk) are then root-only;
  /// health/save/load become collectives every process must call in the
  /// same schedule.
  [[nodiscard]] bool multi_process() const;
  /// The process that owns global output.  Always true in-process; rank 0
  /// under a multi-process transport.
  [[nodiscard]] bool is_io_root() const;
  /// This process's global rank under a multi-process transport, -1 otherwise.
  [[nodiscard]] int local_rank() const;
  /// The decomposed driver (throws unless distributed()).
  [[nodiscard]] sim::DistributedIgr<Policy>& dist();

  /// Write density/pressure/velocity-magnitude to a legacy VTK file.
  void write_vtk(const std::string& path) const;

  /// Checkpoint the run to `path`.  For the IGR scheme the entropic
  /// pressure Sigma is written alongside the state (`path` + ".sigma") so a
  /// restarted run resumes with the same warm start — and therefore
  /// continues *bitwise* identical to the uninterrupted run (test-enforced
  /// through the case runner).  Decomposed runs gather to the global
  /// interior first, so the file is *layout-agnostic*: save on 2x2x2,
  /// restart on 1x2x1 or serial, and (under Jacobi sweeps) the continuation
  /// is still bitwise including dt.
  void save_checkpoint(const std::string& path) const;
  /// Restore a checkpoint written by save_checkpoint (global shape and
  /// precision must match this simulation's parameters; the rank layout
  /// need not — the state is scattered over whatever layout this run uses).
  void load_checkpoint(const std::string& path);

 private:
  Params params_;
  eos::IdealGas eos_;
  std::unique_ptr<core::IgrSolver3D<Policy>> igr_;
  std::unique_ptr<baseline::WenoHllcSolver3D<Policy>> weno_;
  std::unique_ptr<sim::DistributedIgr<Policy>> dist_;
  mutable common::StateField3<S> gathered_;
  mutable bool gathered_dirty_ = true;
  /// steps, wall_ns and last_step_t0_ns; meters() reads the rest live.
  StepMeters clock_;
};

/// 16-bit storage (FP16/32, BF16/32) is only supported by the IGR scheme
/// (the baseline is numerically unstable below FP64, §4.3); requesting it
/// throws.
extern template class Simulation<common::Fp64>;
extern template class Simulation<common::Fp32>;
extern template class Simulation<common::Fp16x32>;
extern template class Simulation<common::Bf16x32>;

}  // namespace igr::app
