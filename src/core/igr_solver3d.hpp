#pragma once
/// \file igr_solver3d.hpp
/// The paper's primary contribution: a 3-D compressible Navier–Stokes solver
/// regularized information-geometrically (eqs. 6–9) — 5th-order linear
/// reconstruction, Lax–Friedrichs fluxes, SSP-RK3, and a warm-started
/// ≤5-sweep elliptic solve for the entropic pressure per RHS evaluation.
///
/// Storage: 2 copies of the 5 conservative variables (state + RK register),
/// Sigma, the Sigma source, and a reciprocal-density cache — 13N storage
/// values (+1N Jacobi double-buffer when enabled).  §5.2's GPU accounting
/// adds 5 full RHS arrays (17N); here the RK update trails the streamed
/// flux front by one k-block, so the RHS lives in a compute-precision ring
/// of two blocks of planes instead (O(N^(2/3)), never rounded to storage).
///
/// Note on kernel organization: the paper fuses reconstruction, both flux
/// families, and the Sigma source into one GPU kernel with thread-local
/// temporaries, interleaving the elliptic solve with the x-direction sweep
/// (Algorithm 1).  The CPU port keeps one Sigma schedule and streams the
/// rest: per RK stage, the Sigma source is built with the reciprocal-density
/// refresh interleaved in k-chunks, the ≤5 warm-started red–black or Jacobi
/// sweeps each relax the whole block after a one-layer ghost fill, and the
/// three flux sweeps stream in k-blocks, with the SSP-RK3 convex update
/// trailing the flux front and the CFL reduction for the next step's dt
/// folded into the final stage's write-back.  sim::DistributedIgr runs the
/// same pieces on every rank through the stage API below, with halo
/// exchanges in place of the physical ghost fills; on a 1x1x1 layout its
/// state, Sigma *and* dt are bitwise this solver's (test-enforced).

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/config.hpp"
#include "common/field3.hpp"
#include "common/precision.hpp"
#include "common/timer.hpp"
#include "core/sigma_solver.hpp"
#include "eos/ideal_gas.hpp"
#include "fv/bc.hpp"
#include "fv/cfl.hpp"
#include "fv/reconstruct.hpp"
#include "fv/rk3.hpp"
#include "mesh/grid.hpp"

namespace igr::core {

/// Initial condition: primitive state as a function of cell-center position.
/// Solvers evaluate it concurrently across their exec-space team (and a
/// decomposed run across its rank workers), so it must be a pure function
/// of (x, y, z): capture by value, keep no shared mutable state.
using PrimFn = std::function<common::Prim<double>(double, double, double)>;

/// Per-face Sigma ghost kinds implied by the state BCs: Sigma wraps across
/// periodic state faces and clamps (zero-gradient) across everything else.
/// Shared by IgrSolver3D's constructor and the distributed driver's
/// physical-face Sigma fill so both derive identical specs.
[[nodiscard]] SigmaBcSpec sigma_bc_from(const fv::BcSpec& bc);

template <class Policy>
class IgrSolver3D {
 public:
  using S = typename Policy::storage_t;
  using C = typename Policy::compute_t;
  static constexpr int kNg = 3;  ///< Ghost depth of every solver field.

  IgrSolver3D(const mesh::Grid& grid, const common::SolverConfig& cfg,
              fv::BcSpec bc,
              fv::ReconScheme recon = fv::ReconScheme::kFifth);

  /// Set the state from a primitive-variable initial condition, evaluated
  /// over k-planes on the configured exec space (bitwise the same at every
  /// width; `prim` must be pure, see PrimFn).
  void init(const PrimFn& prim);

  /// Advance one step at next_dt(); returns the dt taken.
  double step();
  /// Advance one step with a caller-chosen dt (used by convergence tests).
  void step_fixed(double dt);

  /// RHS of the semi-discrete system for state `q` (ghosts are filled
  /// here): BC fill → Sigma source and whole-block relaxation sweeps →
  /// k-block-streamed flux sweeps, the same RHS a step evaluates per stage
  /// (the RK/dt folds live in flux_rk_stage, not here).  Public so tests
  /// can probe spatial accuracy and conservation directly.  `q` must have
  /// this block's shape and ghost depth; `rhs` is caller-owned, at compute
  /// precision, with this block's shape and any ghost depth (its ghosts are
  /// never touched).
  void compute_rhs(common::StateField3<S>& q, common::StateField3<C>& rhs);

  [[nodiscard]] common::StateField3<S>& state() { return q_; }
  [[nodiscard]] const common::StateField3<S>& state() const { return q_; }
  [[nodiscard]] const common::Field3<S>& sigma() const { return sigma_; }
  [[nodiscard]] const mesh::Grid& grid() const { return grid_; }
  [[nodiscard]] const eos::IdealGas& eos() const { return eos_; }
  [[nodiscard]] const common::SolverConfig& config() const { return cfg_; }
  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] double time() const { return time_; }
  /// Restore the simulated-time clock (checkpoint restart).  Callers that
  /// also replace state()/sigma_field() must invalidate_dt_cache().
  void set_time(double t) { time_ = t; }

  /// Bytes allocated in persistent field storage (the §5.4 footprint metric).
  [[nodiscard]] std::size_t memory_bytes() const;
  /// Stored values per interior grid point (13 for Gauss–Seidel, 14
  /// Jacobi); the two-block RHS ring is not a per-cell field.
  [[nodiscard]] double storage_per_cell() const;

  /// Per-phase wall-time breakdown (populated when cfg.phase_timing is on;
  /// a decomposed rank records only the flux and rk_dt phases, which run
  /// inside flux_rk_stage).
  [[nodiscard]] common::PhaseProfile& phase_profile() { return profile_; }
  [[nodiscard]] const common::PhaseProfile& phase_profile() const {
    return profile_;
  }
  /// Total Sigma relaxation sweeps executed so far (always maintained — one
  /// integer add per sweep).  Telemetry reads deltas of this per step.
  [[nodiscard]] std::uint64_t sigma_sweeps_done() const {
    return sigma_sweeps_done_;
  }

  /// finish_step publishes the next step's CFL dt (its reduction is folded
  /// into the final RK stage's traversal).  Mutating state()/sigma_field()
  /// externally between steps invalidates that fold — call this afterwards
  /// so next_dt() rescans instead of using the stale cache.
  void invalidate_dt_cache() { next_dt_valid_ = false; }

  /// Conserved totals (mass, momentum, energy) over the interior, in double.
  [[nodiscard]] common::Cons<double> conserved_totals() const;

  // --- Stage API: the pieces of a step.  step_fixed runs, per RK stage,
  // the ghost fill of stage_input(si), build_sigma_source, each
  // sigma_sweep after a one-layer Sigma ghost fill, the full-depth Sigma
  // fill, and flux_rk_stage, and ends with finish_step.
  // sim::DistributedIgr calls the same pieces on every rank and fills
  // ghosts (halo exchange + physical faces) between them. ---

  /// Input of RK stage `si`: the state for stage 0, the RK register after.
  [[nodiscard]] common::StateField3<S>& stage_input(int si) {
    return si == 0 ? q_ : qstage_;
  }
  /// Whole-block Sigma source for state `q` (needs valid ghosts on `q`):
  /// the reciprocal-density refresh interleaved with the source in
  /// k-chunks, ghost planes included.
  void build_sigma_source(common::StateField3<S>& q);
  /// One relaxation sweep of the whole block with the current Sigma
  /// ghosts: both red–black colours (sigma_relax_planes), or one Jacobi
  /// pass (sigma_jacobi_planes) and the buffer swap.
  void sigma_sweep();
  /// Flux sweeps of stage_input(si) streamed in k-blocks, with the RK update
  /// of stage `si` trailing one block behind the flux front and, on the
  /// final stage (si == 2), the next step's CFL reduction folded in.  Needs
  /// valid ghosts on stage_input(si) and on Sigma.
  void flux_rk_stage(int si, double dt);
  /// Commit the stage register as the new state, advance time, and publish
  /// the CFL dt folded into the final stage.
  void finish_step(double dt);
  /// The next step's CFL dt: the fold finish_step published, or a fresh
  /// scan of the state and warm Sigma when that cache is invalid.  Bitwise
  /// the same value either way.
  [[nodiscard]] double next_dt();

  [[nodiscard]] common::Field3<S>& sigma_field() { return sigma_; }

 private:
  /// Where the flux sweeps write RHS rows and the RK update reads them:
  /// per-component pointers to cell (0, 0, k0) plus row and plane strides.
  /// A caller-owned field (any ghost depth) and one block slot of the
  /// fused step's ring are both seen through it.
  struct RhsRows {
    std::array<C*, common::kNumVars> base{};
    std::ptrdiff_t sy = 0, sz = 0;
    int k0 = 0;
    [[nodiscard]] C* row(int c, int j, int k) const {
      return base[static_cast<std::size_t>(c)] + j * sy +
             static_cast<std::ptrdiff_t>(k - k0) * sz;
    }
  };
  [[nodiscard]] RhsRows rows_of(common::StateField3<C>& rhs) const;
  /// Ring slot of the flux block starting at plane b0.
  [[nodiscard]] RhsRows ring_block(int b0);

  /// Physical-boundary ghost fill only (no Sigma work, no fluxes).
  void apply_domain_bc(common::StateField3<S>& q);
  /// Reciprocal density over ghosted planes k ∈ [k0, k1) of `q` into
  /// inv_rho_: one division per point, consumed multiplication-only by the
  /// Sigma source, the relaxation sweeps, and the viscous flux path.
  void refresh_inv_rho_planes(common::StateField3<S>& q, int k0, int k1);
  void refresh_inv_rho(common::StateField3<S>& q) {
    refresh_inv_rho_planes(q, -q.ng(), grid_.nz() + q.ng());
  }
  /// Sigma source over interior planes [k0, k1) (needs inv_rho through
  /// planes k0-1..k1).  Each team member streams its plane range through a
  /// rolling 3-plane ring of compute-precision velocity rows, so every
  /// momentum/inv_rho row is fetched once per plane visit and every
  /// velocity product is formed once, not once per stencil position.
  void compute_sigma_source_planes(common::StateField3<S>& q, int k0, int k1);
  /// One dimensional flux sweep, templated on the sweep axis and on the
  /// reconstruction operator (a fv::ReconFixed<R>): axis selection,
  /// pressure placement, and the reconstruction stencil all resolve at
  /// compile time, leaving no per-face dispatch.  Faces are evaluated a
  /// unit-stride x-row at a time from compute-precision stencil rows
  /// (common::ComputeRows), with rolling stencil/prim/flux rows for the
  /// transverse directions.  `overwrite` folds the RHS zeroing into the
  /// first sweep's write-back.  Only the cells of planes [k0, k1) are
  /// written (the whole block in x and y), and only their stencil extent
  /// is read.
  template <int Dir, class ReconOp>
  void flux_sweep_stream(common::StateField3<S>& q, const RhsRows& rhs,
                         ReconOp recon, bool overwrite, int k0, int k1);
  template <class ReconOp>
  void flux_stream_all(common::StateField3<S>& q, const RhsRows& rhs,
                       ReconOp recon, int k0, int k1);
  /// Zero `rhs` and accumulate the three dimensional flux sweeps of `q`
  /// in k-blocks (requires valid ghosts on `q` and on Sigma).  The
  /// reconstruction scheme is resolved to a compile-time instantiation
  /// here, once per call — the only runtime dispatch on the flux path.
  /// With viscosity enabled *and* the Sigma solve active, the viscous
  /// path reads the reciprocal-density cache the Sigma-source build
  /// refreshed from the same `q`; with the Sigma solve disabled the cache
  /// is refreshed here.
  void compute_fluxes(common::StateField3<S>& q, common::StateField3<C>& rhs);
  /// The once-per-RHS flux precondition: the viscous path reads the
  /// persistent reciprocal-density field, which nobody refreshed this RHS
  /// when the Sigma solve is disabled.
  void prepare_flux_pass(common::StateField3<S>& q);

  /// Sigma solve of one RHS evaluation for state `q` (ghosts filled):
  /// build_sigma_source, then per sweep a one-layer Sigma ghost fill and
  /// sigma_sweep, then the full-depth fill the reconstruction reads.
  void sigma_phase(common::StateField3<S>& q);

  // --- Streamed flux/RK stage ---
  /// k-block thickness of the streamed flux stage (and of the source
  /// build's chunks).  Larger blocks amortize the re-evaluated z faces at
  /// block seams; smaller ones keep the rolling window cache-resident (8
  /// measured best, see PERF.md).
  static constexpr int kFluxBlock = 8;
  // The trailing RK update of block b-1 must not touch planes the z-flux
  // stencil of block b still reads.
  static_assert(kFluxBlock >= kNg, "flux blocks must span the ghost depth");
  /// RK update restricted to planes [k0, k1).
  void rk_update_planes(const fv::Rk3Stage& st, double dt, int k0, int k1,
                        const RhsRows& rhs);
  /// First-stage RK update reading q_ directly: qstage = q + dt * rhs.
  /// Bitwise the textbook `0*qn + 1*(qstage + dt*rhs)` with qstage a fresh
  /// copy of q (±0*x + y == y for every y the copy construction can
  /// produce), which spares the step a 5N copy of q into the register.
  void rk_stage1_planes(double dt, int k0, int k1, const RhsRows& rhs);

  mesh::Grid grid_;
  common::SolverConfig cfg_;
  fv::BcSpec bc_;
  fv::ReconScheme recon_;
  eos::IdealGas eos_;
  double alpha_;
  double time_ = 0.0;
  SigmaBcSpec sigma_bc_{};  // derived per face from bc_ (sigma_bc_from)

  common::StateField3<S> q_;       // current state
  common::StateField3<S> qstage_;  // RK register
  /// The fused step's RHS: two slots of min(kFluxBlock, nz) unghosted
  /// planes x 5 components, block b0 in slot (b0 / kFluxBlock) & 1 — the
  /// flux front fills one slot while the trailing RK update drains the
  /// other.
  std::vector<C> rhs_ring_;
  common::Field3<S> sigma_;
  common::Field3<S> sigma_src_;
  common::Field3<S> sigma_scratch_;  // Jacobi only (size 0 for Gauss–Seidel)
  /// Reciprocal density (CPU optimization: the Sigma sweeps and source run
  /// division-free; the paper's fused GPU kernel recomputes reciprocals in
  /// registers instead, keeping its storage at 17N).
  common::Field3<S> inv_rho_;

  common::PhaseProfile profile_;
  std::uint64_t sigma_sweeps_done_ = 0;

  /// Next-step CFL cache: the final RK stage accumulates the CFL extrema
  /// over the freshly written state and warm Sigma — the same values a
  /// dedicated scan at the top of the next step would read — so next_dt()
  /// skips that 6N pass.
  fv::CflRates dt_rates_{};
  double next_dt_ = 0.0;
  bool next_dt_valid_ = false;
};

}  // namespace igr::core
