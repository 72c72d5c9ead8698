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
/// (Algorithm 1).  The CPU port realizes the same traversal discipline with
/// a fused, k-plane-streaming RHS pipeline: per RK stage, a rolling window
/// of planes flows once through the Sigma-source build, the ≤5 warm-started
/// relaxation sweeps (pipelined across planes as a red–black/Jacobi
/// wavefront where the Sigma boundary handling permits), and the three flux
/// sweeps streamed in k-blocks, with the SSP-RK3 convex update trailing the
/// flux front and the CFL reduction for the next step's dt folded into the
/// final stage's write-back.  Every slot of the pipeline reads exactly the
/// values a phase-by-phase schedule would show it, so results — state *and*
/// dt — are bitwise-identical to the per-phase step sim::DistributedIgr
/// composes from the piecewise API below (test-enforced on a 1x1x1 layout).

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

/// Half-open box of interior cells, [lo, hi) per axis.  The flux sweeps can
/// be restricted to a region so distributed drivers may split a block into
/// an interior (no ghost reads — computable while a halo exchange is in
/// flight) and the complementary boundary shell.  Cell values are bitwise
/// independent of how the block is partitioned into regions.
struct CellRegion {
  std::array<int, 3> lo{};
  std::array<int, 3> hi{};
  [[nodiscard]] bool empty() const {
    return hi[0] <= lo[0] || hi[1] <= lo[1] || hi[2] <= lo[2];
  }
};

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

  /// Advance one step at the CFL-limited dt; returns the dt taken.
  double step();
  /// Advance one step with a caller-chosen dt (used by convergence tests).
  void step_fixed(double dt);

  /// RHS of the semi-discrete system for state `q` (ghosts are filled
  /// here): BC fill → Sigma source and pipelined relaxation wavefront →
  /// k-block-streamed flux sweeps, the same RHS a step evaluates per stage
  /// (the RK/dt folds live in step_fixed, not here).  Public so tests can
  /// probe spatial accuracy and conservation directly.  `rhs` is caller-
  /// owned, at compute precision, with this block's shape and any ghost
  /// depth (its ghosts are never touched).
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

  /// Per-phase wall-time breakdown (populated when cfg.phase_timing is on).
  [[nodiscard]] common::PhaseProfile& phase_profile() { return profile_; }
  [[nodiscard]] const common::PhaseProfile& phase_profile() const {
    return profile_;
  }
  /// Total Sigma relaxation sweeps executed so far (always maintained — one
  /// integer add per sweep; the fused pipeline credits its logical sweeps in
  /// one batch).  Telemetry reads deltas of this per step.
  [[nodiscard]] std::uint64_t sigma_sweeps_done() const {
    return sigma_sweeps_done_;
  }

  /// step_fixed caches the next step's CFL dt (its reduction is folded
  /// into the final RK stage's traversal).  Mutating state()/sigma_field()
  /// externally between steps invalidates that fold — call this afterwards
  /// so the next step() rescans instead of using the stale cache.
  void invalidate_dt_cache() { next_dt_valid_ = false; }

  /// Conserved totals (mass, momentum, energy) over the interior, in double.
  [[nodiscard]] common::Cons<double> conserved_totals() const;

  // --- Piecewise API for distributed drivers (sim::DistributedIgr) ---
  // These expose the phases of compute_rhs as whole-block passes so a
  // driver can interleave halo exchanges across ranks.

  /// Interior part of the Sigma-source build with respect to the z axis: the
  /// reciprocal-density refresh over interior planes plus the source over
  /// planes [1, nz-1).  Reads no z ghost plane of `q`, so it is safe to run
  /// while the z halo exchange of `q` is still in flight (x/y ghosts must
  /// already be valid).  Pair with build_sigma_source_boundary; together
  /// they are bitwise one whole-block source build (per-point maps over
  /// disjoint plane sets).
  void build_sigma_source_interior(common::StateField3<S>& q);
  /// The z-boundary complement: ghost-plane reciprocal-density refresh and
  /// the source at planes 0 and nz-1 (needs valid z ghosts of `q`).
  void build_sigma_source_boundary(common::StateField3<S>& q);
  /// One relaxation pass with the current Sigma ghosts.
  void sigma_sweep(common::StateField3<S>& q);
  /// Zero `rhs` and accumulate the three dimensional flux sweeps (requires
  /// valid ghosts on `q` and on Sigma).  The reconstruction scheme is
  /// resolved to a compile-time instantiation here, once per call — the only
  /// runtime dispatch on the flux path.  (The zeroing is folded into the
  /// dir==0 sweep's write-back; rhs ghost cells are never touched.)
  ///
  /// Preconditions: `q` must have this solver's block shape and ghost
  /// depth, `rhs` its block shape at any ghost depth (asserted).  With
  /// viscosity enabled *and* the Sigma solve active, the viscous path reads
  /// the reciprocal-density cache refreshed by the Sigma-source build — run
  /// that on the same `q` first (the distributed driver and compute_rhs
  /// both do); with the Sigma solve disabled the cache is refreshed here.
  void compute_fluxes(common::StateField3<S>& q, common::StateField3<C>& rhs);
  /// Interior part of compute_fluxes with respect to one axis: only cells
  /// at least one ghost depth (3) away from the two block faces of `axis`,
  /// which therefore read no ghost *plane along that axis* of `q` or Sigma
  /// — safe to run while a halo exchange of exactly that axis is still in
  /// flight (ghosts of the other axes must already be valid; the axis-x,y
  /// exchanges complete before the overlapped axis-z one is posted).
  /// Empty (a no-op) when the block is thinner than 2x the margin.  Shares
  /// compute_fluxes' preconditions; when the viscous path must refresh the
  /// reciprocal-density cache (Sigma solve inactive), this call does it —
  /// always pair it with compute_fluxes_boundary afterwards.
  void compute_fluxes_interior(common::StateField3<S>& q,
                               common::StateField3<C>& rhs, int axis);
  /// The complementary two boundary slabs of `axis` (needs valid ghosts on
  /// `q` and Sigma).  interior + boundary update each interior cell exactly
  /// once and are together bitwise identical to one compute_fluxes call.
  void compute_fluxes_boundary(common::StateField3<S>& q,
                               common::StateField3<C>& rhs, int axis);
  /// RK convex combination: stage = a*q^n + b*(stage + dt*rhs).
  void rk_update(const fv::Rk3Stage& st, double dt,
                 const common::StateField3<C>& rhs);

  [[nodiscard]] common::StateField3<S>& stage_field() { return qstage_; }
  [[nodiscard]] common::Field3<S>& sigma_field() { return sigma_; }
  /// Commit the stage register as the new state and advance time.
  void finish_step(double dt);
  /// Copy state into the stage register (start of a step).
  void begin_step();

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
  /// The interior region of the flux split above ([3, n-3) along `axis`,
  /// clamped for thin blocks; full extent on the other axes).
  [[nodiscard]] CellRegion interior_flux_region(int axis) const;
  /// Reciprocal density over ghosted planes k ∈ [k0, k1) of `q` into
  /// inv_rho_: one division per point, consumed multiplication-only by the
  /// Sigma source, the relaxation sweeps, and the viscous flux path.
  void refresh_inv_rho_planes(common::StateField3<S>& q, int k0, int k1);
  void refresh_inv_rho(common::StateField3<S>& q) {
    refresh_inv_rho_planes(q, -q.ng(), grid_.nz() + q.ng());
  }
  /// Sigma source over interior planes [k0, k1) (needs inv_rho through
  /// planes k0-1..k1).  For the converting policy with batched lanes, each
  /// thread streams its plane range through a rolling 3-plane ring of
  /// velocity rows, so every momentum/inv_rho row is converted once per
  /// visit instead of once per stencil position (five times).
  void compute_sigma_source_planes(common::StateField3<S>& q, int k0, int k1);
  /// Full-field source build: inv_rho refresh interleaved with the source
  /// in k-chunks so the freshly written reciprocal planes are still
  /// cache-resident when the source consumes them.  (Values are traversal-
  /// order-independent; this is bitwise the old two-pass build.)
  void compute_sigma_source(common::StateField3<S>& q);
  /// One dimensional flux sweep, templated on the sweep axis and on the
  /// reconstruction operator (a fv::ReconFixed<R>): axis selection,
  /// pressure placement, and the reconstruction stencil all resolve at
  /// compile time, leaving no per-face dispatch.  Faces are evaluated a
  /// unit-stride x-row at a time straight from the fields, with rolling
  /// stencil/prim/flux rows for the transverse directions.  `overwrite`
  /// folds the RHS zeroing into the first sweep's write-back.  Only cells
  /// inside `reg` are written, and only the stencil extent of `reg` is
  /// read.
  template <int Dir, class ReconOp>
  void flux_sweep_stream(common::StateField3<S>& q, const RhsRows& rhs,
                         ReconOp recon, bool overwrite, const CellRegion& reg);
  template <class ReconOp>
  void flux_stream_all(common::StateField3<S>& q, const RhsRows& rhs,
                       ReconOp recon, const CellRegion& reg);
  /// Dispatch + sweep over one region (refresh_inv_rho handling included
  /// when `prepare` is set — exactly once per RHS evaluation).
  void compute_fluxes_region(common::StateField3<S>& q,
                             common::StateField3<C>& rhs,
                             const CellRegion& reg, bool prepare);
  /// The once-per-RHS flux precondition: the viscous path reads the
  /// persistent reciprocal-density field, which nobody refreshed this RHS
  /// when the Sigma solve is disabled.
  void prepare_flux_pass(common::StateField3<S>& q);
  [[nodiscard]] CellRegion full_region() const {
    return {{0, 0, 0}, {grid_.nx(), grid_.ny(), grid_.nz()}};
  }

  // --- Fused plane-streaming pipeline ---
  /// k-block thickness of the streamed flux stage (and of the source
  /// build's chunks).  Larger blocks amortize the re-evaluated z faces at
  /// block seams; smaller ones keep the rolling window cache-resident (8
  /// measured best, see PERF.md).
  static constexpr int kFluxBlock = 8;
  // The trailing RK update of block b-1 must not touch planes the z-flux
  // stencil of block b still reads.
  static_assert(kFluxBlock >= kNg, "flux blocks must span the ghost depth");
  /// Ghost fill + Sigma solve of one RHS evaluation, plane-pipelined where
  /// the Sigma boundary handling permits (see the .cpp for the wavefront
  /// schedule and its dependency argument).
  void fused_sigma_phase(common::StateField3<S>& q);
  /// Source + sweeps + boundary fill as one skewed plane wavefront
  /// (Neumann Sigma ghosts only — a periodic wrap would need far-boundary
  /// post-sweep values before the stream reaches them).
  void fused_sigma_pipeline(common::StateField3<S>& q);
  /// Streamed flux blocks into the RHS ring with the RK update (and, on
  /// the final stage, the CFL reduction) trailing one block behind the
  /// flux front.
  void fused_flux_rk(common::StateField3<S>& q, const fv::Rk3Stage& st,
                     double dt, bool first_stage, bool accumulate_dt);
  /// RK update restricted to planes [k0, k1).
  void rk_update_planes(const fv::Rk3Stage& st, double dt, int k0, int k1,
                        const RhsRows& rhs);
  /// First-stage RK update reading q_ directly: qstage = q + dt * rhs.
  /// Bitwise the per-phase `0*qn + 1*(qstage + dt*rhs)` with qstage a fresh
  /// copy of q (±0*x + y == y for every y the copy construction can
  /// produce), which lets the fused step skip begin_step's 5N copy.
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
  /// dedicated scan at the top of the next step would read — so step()
  /// skips that 6N pass.
  fv::CflRates dt_rates_{};
  double next_dt_ = 0.0;
  bool next_dt_valid_ = false;
};

}  // namespace igr::core
