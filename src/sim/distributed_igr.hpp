#pragma once
/// \file distributed_igr.hpp
/// Rank-parallel decomposed IGR stepping over the simulated communicator.
///
/// Each rank owns an IgrSolver3D on its block and runs on its own worker
/// thread (sim::RankTeam); the driver executes every phase of the RHS as a
/// barrier-delimited SPMD phase across ranks, exchanging halos exactly where
/// a production MPI code would:
///   - state ghosts once per RK stage,
///   - Sigma ghosts before every relaxation sweep (the elliptic solve is the
///     only globally coupled kernel in the scheme),
///   - a dt allreduce per step.
/// Within a phase, ranks synchronize pairwise through Comm's posted-epoch
/// halo pipeline (post / compute / complete), and both ends of each RHS
/// hide a halo behind compute: the state z-exchange overlaps the interior
/// Sigma-source build, and the final Sigma exchange overlaps the interior
/// flux sweeps — a rank posts its faces, computes every line that touches
/// no in-flight ghost, completes the exchange, then finishes the boundary
/// shell.  The state and Sigma channels can additionally narrow their wire
/// payload to binary16 (DistOptions::halo_wire), halving FP32 halo bytes.
///
/// This per-phase step is also the library's one phased schedule: on a
/// 1x1x1 layout it is the bitwise reference for the single-domain solver's
/// fused pipeline (test-enforced).
///
/// With Jacobi sweeps the decomposed run is *bitwise identical* to the
/// single-domain run — independent of rank layout and of the overlap
/// splits (test-enforced, including dt and Sigma).  With
/// Gauss–Seidel the block-local sweeps use previous-sweep halo values (block
/// Gauss–Seidel), which converges to the same Sigma but is not bitwise equal
/// — the same trade production codes make.

#include <array>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/timer.hpp"
#include "core/igr_solver3d.hpp"
#include "fv/cfl.hpp"
#include "sim/comm.hpp"
#include "sim/fault.hpp"
#include "sim/rank_team.hpp"

namespace igr::sim {

/// Execution options for the rank-parallel driver.
struct DistOptions {
  /// Wire encoding of the state and Sigma halo channels (see
  /// Comm::WirePrecision).  kHalf halves FP32 halo traffic and quarters
  /// FP64's; 16-bit storage is already at wire width, so there it is a
  /// bitwise no-op.
  Comm::WirePrecision halo_wire = Comm::WirePrecision::kFull;
  /// Fault injector wired into the communicator and every phase callback
  /// (nullptr: no injection).  Must outlive the driver — the case runner
  /// keeps one injector across rollback rebuilds so counters persist.
  FaultInjector* fault = nullptr;
  /// Bound on any single halo wait before the exchange self-aborts (a peer
  /// that dies without unwinding would otherwise deadlock its neighbors).
  /// <= 0 disables the bound.
  double comm_timeout_s = 60.0;
  /// Transport behind the Comm seam.  The default in-process backend runs
  /// every rank in this process (one worker thread each); kTcp makes this
  /// process own exactly `transport.rank`, exchanging with peer processes
  /// over loopback sockets — then gather/scatter become collectives and
  /// only the IO root assembles global fields.
  TransportSpec transport{};
};

/// Blob tags of the gather-to-root collectives (Transport::send_blob
/// matching is (sender, tag, call order); every process runs the same
/// gather schedule, so the order is deterministic).
inline constexpr int kBlobTagState = 1;
inline constexpr int kBlobTagSigma = 2;

template <class Policy>
class DistributedIgr {
 public:
  using S = typename Policy::storage_t;
  using C = typename Policy::compute_t;
  /// Ghost depth of every solver field.
  static constexpr int kNg = core::IgrSolver3D<Policy>::kNg;

  DistributedIgr(const mesh::Grid& global, int rx, int ry, int rz,
                 const common::SolverConfig& cfg, const fv::BcSpec& bc,
                 fv::ReconScheme recon = fv::ReconScheme::kFifth,
                 DistOptions opts = {})
      : comm_(global, rx, ry, rz, is_periodic(bc), opts.transport),
        cfg_(cfg),
        bc_(bc),
        sigma_bc_(core::sigma_bc_from(bc)),
        opts_(opts) {
    comm_.validate_driver_decomp(kNg);
    comm_.set_fault_injector(opts_.fault);
    comm_.set_wait_timeout(opts_.comm_timeout_s);
    comm_.set_wire(Comm::kChanState, opts_.halo_wire);
    comm_.set_wire(Comm::kChanSigma, opts_.halo_wire);
    // The ranks this process drives: all of them in-process, exactly one
    // per process over a multi-process transport.
    if (comm_.multi_process()) {
      local_ranks_ = {comm_.transport().local_rank()};
    } else {
      for (int r = 0; r < comm_.ranks(); ++r) local_ranks_.push_back(r);
    }
    // cfg.exec_threads is each rank solver's exec-space width.  0 (divide
    // the hardware evenly) stays ambient: the worker threads pin the OpenMP
    // width to hw/ranks, and non-OpenMP builds fall back to serial, which
    // keeps rank parallelism as the only concurrency in that case.
    team_ = std::make_unique<RankTeam>(
        static_cast<int>(local_ranks_.size()), cfg.exec_threads,
        comm_.ranks());
    // Each rank's solver and RHS are built on the worker that steps them,
    // so that worker first-touches (zero-fills) its own pages.  A rank that
    // fails to construct rethrows its error here once every worker is done.
    ranks_.resize(local_ranks_.size());
    rhs_.resize(local_ranks_.size());
    team_->run([&](int li) {
      const auto i = static_cast<std::size_t>(li);
      const auto& g = comm_.local_grid(local_ranks_[i]);
      ranks_[i] =
          std::make_unique<core::IgrSolver3D<Policy>>(g, cfg, bc, recon);
      rhs_[i] = common::StateField3<C>(g.nx(), g.ny(), g.nz(), /*ng=*/0);
    });
    dts_.resize(local_ranks_.size());
  }

  /// Each local rank evaluates `prim` over its block on its own worker
  /// (`prim` must be pure, see core::PrimFn).
  void init(const core::PrimFn& prim) {
    for_each_local_solver(
        [&prim](std::size_t, core::IgrSolver3D<Policy>& s) { s.init(prim); });
  }

  /// Run `fn(local index, solver)` once per local rank, each on its own
  /// RankTeam worker, and wait for all of them.
  /// For whole-field passes outside the time step (initial conditions,
  /// health scans): unlike a step phase it exchanges nothing, so it skips
  /// the poisoned-communicator check and the fault injector's phase hook,
  /// whose counters deterministic fault plans are written against.
  template <class Fn>
  void for_each_local_solver(Fn&& fn) {
    team_->run([this, &fn](int li) {
      const auto i = static_cast<std::size_t>(li);
      fn(i, *ranks_[i]);
    });
  }

  /// One step at the globally reduced CFL dt; returns dt.
  double step() {
    run_phase([this](int r) {
      auto& s = solver(r);
      // Warm-start Sigma feeds the wave-speed bound, exactly as the
      // single-domain step() does; the cell-wise max/min reductions inside
      // compute_dt decompose exactly, so the allreduced dt is bitwise the
      // single-domain dt under Jacobi sweeps.
      dts_[local_index(r)] =
          fv::compute_dt(s.state(), s.grid(), s.eos(), s.config(), &s.sigma());
    });
    // Local min over this process's ranks, then the cross-process min.
    // min is associative and exact, so the composition is bitwise the
    // single-domain reduction (in-process the global step is an identity).
    const double dt = comm_.allreduce_min_global(Comm::allreduce_min(dts_));
    step_fixed(dt);
    return dt;
  }

  void step_fixed(double dt) {
    run_phase([this](int r) { solver(r).begin_step(); });
    for (const auto& st : fv::kRk3Stages) {
      stage_rhs();
      run_phase([this, &st, dt](int r) {
        solver(r).rk_update(st, dt, rhs_[local_index(r)]);
      });
    }
    run_phase([this, dt](int r) { solver(r).finish_step(dt); });
    time_ += dt;
  }

  /// RHS of the current state into every local rank's RHS field (read it
  /// with rhs()): the per-phase evaluation one RK stage runs, without the
  /// update.  Overwrites each rank's stage register and warm-start Sigma,
  /// like the single-domain IgrSolver3D::compute_rhs.
  void compute_rhs() {
    run_phase([this](int r) { solver(r).begin_step(); });
    stage_rhs();
  }

  /// RHS field of global rank `r` (local to this process), at compute
  /// precision and without ghosts: the last stage's RHS after a step.
  [[nodiscard]] const common::StateField3<C>& rhs(int r) const {
    return rhs_[local_index(r)];
  }

  /// Assemble the global conservative state (for comparison against a
  /// single-domain run and for output).  In-process this walks every rank
  /// directly; over a multi-process transport it is a *collective*
  /// gather-to-root — every process must call it in the same schedule
  /// position, non-root processes ship their block to rank 0 and return a
  /// 1-cell placeholder (callers gate global reads on is_root()).
  [[nodiscard]] common::StateField3<S> gather() const {
    if (comm_.multi_process() && !comm_.is_root()) {
      send_block_to_root(ranks_[0]->state(), common::kNumVars,
                         kBlobTagState);
      return common::StateField3<S>(1, 1, 1, 0);
    }
    const auto& g = comm_.global_grid();
    common::StateField3<S> out(g.nx(), g.ny(), g.nz(), kNg);
    for (const int r : local_ranks_) {
      const auto b = comm_.decomp().block(r);
      const auto& q = solver_const(r).state();
      for (int c = 0; c < common::kNumVars; ++c) {
        for (int k = 0; k < b.n[2]; ++k)
          for (int j = 0; j < b.n[1]; ++j)
            for (int i = 0; i < b.n[0]; ++i)
              out[c](b.lo[0] + i, b.lo[1] + j, b.lo[2] + k) = q[c](i, j, k);
      }
    }
    if (comm_.multi_process()) {
      for (int r = 0; r < comm_.ranks(); ++r) {
        if (r == local_ranks_[0]) continue;
        receive_block(out, r, common::kNumVars, kBlobTagState);
      }
    }
    return out;
  }

  /// Assemble the global Sigma field (output/diagnostics).  Collective
  /// over multi-process transports, like gather().
  [[nodiscard]] common::Field3<S> gather_sigma() const {
    if (comm_.multi_process() && !comm_.is_root()) {
      send_field_to_root(ranks_[0]->sigma(), kBlobTagSigma);
      return common::Field3<S>(1, 1, 1, 0);
    }
    const auto& g = comm_.global_grid();
    common::Field3<S> out(g.nx(), g.ny(), g.nz(), kNg);
    for (const int r : local_ranks_) {
      const auto b = comm_.decomp().block(r);
      const auto& sig = solver_const(r).sigma();
      for (int k = 0; k < b.n[2]; ++k)
        for (int j = 0; j < b.n[1]; ++j)
          for (int i = 0; i < b.n[0]; ++i)
            out(b.lo[0] + i, b.lo[1] + j, b.lo[2] + k) = sig(i, j, k);
    }
    if (comm_.multi_process()) {
      for (int r = 0; r < comm_.ranks(); ++r) {
        if (r == local_ranks_[0]) continue;
        receive_field(out, r, kBlobTagSigma);
      }
    }
    return out;
  }

  /// Distribute a global conservative state over the rank blocks — the
  /// restart inverse of gather().  Only interiors are written; ghosts are
  /// refilled by the next step's exchange + BC fill, exactly as after
  /// init().  Each rank's cached dt is invalidated (the cache belonged to
  /// the pre-scatter state).
  void scatter(const common::StateField3<S>& global) {
    check_global_shape(global.nx(), global.ny(), global.nz(), "scatter");
    for (const int r : local_ranks_) {
      const auto b = comm_.decomp().block(r);
      auto& s = solver(r);
      auto& q = s.state();
      for (int c = 0; c < common::kNumVars; ++c) {
        for (int k = 0; k < b.n[2]; ++k)
          for (int j = 0; j < b.n[1]; ++j)
            for (int i = 0; i < b.n[0]; ++i)
              q[c](i, j, k) = global[c](b.lo[0] + i, b.lo[1] + j, b.lo[2] + k);
      }
      s.invalidate_dt_cache();
    }
  }

  /// Distribute a global Sigma field (restart warm start) — inverse of
  /// gather_sigma().
  void scatter_sigma(const common::Field3<S>& global) {
    check_global_shape(global.nx(), global.ny(), global.nz(),
                       "scatter_sigma");
    for (const int r : local_ranks_) {
      const auto b = comm_.decomp().block(r);
      auto& s = solver(r);
      auto& sig = s.sigma_field();
      for (int k = 0; k < b.n[2]; ++k)
        for (int j = 0; j < b.n[1]; ++j)
          for (int i = 0; i < b.n[0]; ++i)
            sig(i, j, k) = global(b.lo[0] + i, b.lo[1] + j, b.lo[2] + k);
      s.invalidate_dt_cache();
    }
  }

  /// Reset simulated time on the driver and every rank (restart).
  void set_time(double t) {
    time_ = t;
    for (auto& s : ranks_) s->set_time(t);
  }

  [[nodiscard]] const Comm& comm() const { return comm_; }
  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] const DistOptions& options() const { return opts_; }
  /// Solver of global rank `r` — must be local to this process.
  [[nodiscard]] core::IgrSolver3D<Policy>& rank(int r) { return solver(r); }
  /// Global rank ids this process drives (all of them in-process).
  [[nodiscard]] const std::vector<int>& local_ranks() const {
    return local_ranks_;
  }
  [[nodiscard]] bool multi_process() const { return comm_.multi_process(); }
  [[nodiscard]] bool is_root() const { return comm_.is_root(); }
  /// Persistent field storage summed over this process's ranks (the §5.4
  /// footprint metric; in multi-process mode each process reports only its
  /// own share).
  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t b = 0;
    for (const auto& s : ranks_) b += s->memory_bytes();
    for (const auto& f : rhs_) b += f.bytes();
    return b;
  }

 private:
  [[nodiscard]] std::size_t local_index(int global_rank) const {
    for (std::size_t i = 0; i < local_ranks_.size(); ++i) {
      if (local_ranks_[i] == global_rank) return i;
    }
    throw std::logic_error("DistributedIgr: rank " +
                           std::to_string(global_rank) +
                           " is not local to this process");
  }
  [[nodiscard]] core::IgrSolver3D<Policy>& solver(int global_rank) {
    return *ranks_[local_index(global_rank)];
  }
  [[nodiscard]] const core::IgrSolver3D<Policy>& solver_const(
      int global_rank) const {
    return *ranks_[local_index(global_rank)];
  }

  // --- gather/scatter block packing (multi-process collectives) ---------

  static S* pack_block(const common::Field3<S>& f, const int* n, S* p) {
    for (int k = 0; k < n[2]; ++k)
      for (int j = 0; j < n[1]; ++j)
        for (int i = 0; i < n[0]; ++i) *p++ = f(i, j, k);
    return p;
  }

  void send_field_to_root(const common::Field3<S>& f, int tag) const {
    const auto b = comm_.decomp().block(local_ranks_[0]);
    const std::size_t cells = static_cast<std::size_t>(b.n[0]) *
                              static_cast<std::size_t>(b.n[1]) *
                              static_cast<std::size_t>(b.n[2]);
    std::vector<unsigned char> blob(cells * sizeof(S));
    pack_block(f, b.n.data(), reinterpret_cast<S*>(blob.data()));
    comm_.transport().send_blob(0, tag, blob.data(), blob.size());
  }

  void send_block_to_root(const common::StateField3<S>& q, int ncomp,
                          int tag) const {
    const auto b = comm_.decomp().block(local_ranks_[0]);
    const std::size_t cells = static_cast<std::size_t>(b.n[0]) *
                              static_cast<std::size_t>(b.n[1]) *
                              static_cast<std::size_t>(b.n[2]);
    std::vector<unsigned char> blob(static_cast<std::size_t>(ncomp) * cells *
                                    sizeof(S));
    S* p = reinterpret_cast<S*>(blob.data());
    for (int c = 0; c < ncomp; ++c) p = pack_block(q[c], b.n.data(), p);
    comm_.transport().send_blob(0, tag, blob.data(), blob.size());
  }

  void receive_field(common::Field3<S>& out, int r, int tag) const {
    const auto b = comm_.decomp().block(r);
    const std::size_t cells = static_cast<std::size_t>(b.n[0]) *
                              static_cast<std::size_t>(b.n[1]) *
                              static_cast<std::size_t>(b.n[2]);
    const auto blob = comm_.transport().recv_blob(r, tag);
    if (blob.size() != cells * sizeof(S))
      throw TransportError("DistributedIgr: gather blob from rank " +
                           std::to_string(r) + " has the wrong size");
    const S* p = reinterpret_cast<const S*>(blob.data());
    for (int k = 0; k < b.n[2]; ++k)
      for (int j = 0; j < b.n[1]; ++j)
        for (int i = 0; i < b.n[0]; ++i)
          out(b.lo[0] + i, b.lo[1] + j, b.lo[2] + k) = *p++;
  }

  void receive_block(common::StateField3<S>& out, int r, int ncomp,
                     int tag) const {
    const auto b = comm_.decomp().block(r);
    const std::size_t cells = static_cast<std::size_t>(b.n[0]) *
                              static_cast<std::size_t>(b.n[1]) *
                              static_cast<std::size_t>(b.n[2]);
    const auto blob = comm_.transport().recv_blob(r, tag);
    if (blob.size() != static_cast<std::size_t>(ncomp) * cells * sizeof(S))
      throw TransportError("DistributedIgr: gather blob from rank " +
                           std::to_string(r) + " has the wrong size");
    const S* p = reinterpret_cast<const S*>(blob.data());
    for (int c = 0; c < ncomp; ++c) {
      for (int k = 0; k < b.n[2]; ++k)
        for (int j = 0; j < b.n[1]; ++j)
          for (int i = 0; i < b.n[0]; ++i)
            out[c](b.lo[0] + i, b.lo[1] + j, b.lo[2] + k) = *p++;
    }
  }

  void check_global_shape(int nx, int ny, int nz, const char* what) const {
    const auto& g = comm_.global_grid();
    if (nx != g.nx() || ny != g.ny() || nz != g.nz())
      throw std::invalid_argument(
          std::string("DistributedIgr::") + what +
          ": global field shape does not match the decomposed grid");
  }

  static bool is_periodic(const fv::BcSpec& bc) {
    for (auto k : bc.kind)
      if (k != fv::BcKind::kPeriodic) return false;
    return true;
  }

  /// Run one SPMD phase over this process's ranks (the phase callback
  /// receives *global* rank ids).  A rank that throws aborts the
  /// communicator first so no peer waits forever on its unposted halos.
  /// The abort latches: once any phase failed, exchanges (and hence ghost
  /// contents) are undefined, so every later phase refuses loudly instead
  /// of silently stepping on corrupt halos.
  template <class Fn>
  void run_phase(Fn&& fn) {
    if (comm_.aborted()) {
      std::string msg =
          "DistributedIgr: a previous phase failed and poisoned the "
          "communicator; the decomposed state is no longer consistent";
      const std::string why = comm_.abort_reason();
      if (!why.empty()) msg += " (" + why + ")";
      throw std::runtime_error(msg);
    }
    team_->run([this, &fn](int li) {
      const int r = local_ranks_[static_cast<std::size_t>(li)];
      try {
        if (opts_.fault) opts_.fault->on_phase(r);
        fn(r);
      } catch (const std::exception& e) {
        comm_.abort_exchanges(e.what());
        throw;
      } catch (...) {
        comm_.abort_exchanges();
        throw;
      }
    });
  }

  [[nodiscard]] std::array<common::Field3<S>*, common::kNumVars> state_comps(
      int r) {
    auto& q = solver(r).stage_field();
    std::array<common::Field3<S>*, common::kNumVars> c{};
    for (int v = 0; v < common::kNumVars; ++v) c[static_cast<std::size_t>(v)] = &q[v];
    return c;
  }

  void fill_state_bc_axis(int r, int axis) {
    auto& s = solver(r);
    fv::apply_bc_axis(s.stage_field(), bc_, s.grid(), s.eos(), axis,
                      physical_sides(r, axis));
  }

  void fill_sigma_bc_axis(int r, int axis) {
    const auto sides = physical_sides(r, axis);
    if (sides[0] || sides[1]) {
      // Per-face kinds derived from the state BC: Sigma wraps across the
      // periodic faces and clamps elsewhere, matching the single-domain
      // solver's sigma_bc_from(bc_) exactly (decomposition cannot change
      // the ghost kind a face sees).
      core::fill_sigma_ghosts_axis(solver(r).sigma_field(), sigma_bc_, axis,
                                   sides);
    }
  }

  /// Physical-face fill + interior-face exchange of the state for axes
  /// [0, axes), interleaved per axis in the same x,y,z order as the
  /// single-domain ghost fill; returns false on an aborted exchange.
  bool state_ghost_phase(int r, int axes) {
    auto comps = state_comps(r);
    for (int axis = 0; axis < axes; ++axis) {
      fill_state_bc_axis(r, axis);
      comm_.post_axis(Comm::kChanState, r, comps.data(), common::kNumVars,
                      axis);
      if (!comm_.complete_axis(Comm::kChanState, r, comps.data(),
                               common::kNumVars, axis))
        return false;
    }
    return true;
  }

  void refresh_state_ghosts() {
    run_phase([this](int r) { state_ghost_phase(r, /*axes=*/3); });
  }

  /// One RHS evaluation of every rank's stage register into its RHS field.
  void stage_rhs() {
    const bool sigma_active = cfg_.sigma_sweeps > 0 && cfg_.alpha_factor > 0.0;
    if (sigma_active) {
      refresh_state_and_build_source();
      for (int sw = 0; sw < cfg_.sigma_sweeps; ++sw) {
        refresh_sigma_ghosts();
        run_phase([this](int r) {
          auto& s = solver(r);
          s.sigma_sweep(s.stage_field());
        });
      }
      final_sigma_and_fluxes();
    } else {
      refresh_state_ghosts();
      run_phase([this](int r) {
        auto& s = solver(r);
        s.compute_fluxes(s.stage_field(), rhs_[local_index(r)]);
      });
    }
  }

  /// State ghost refresh + Sigma source build, with the z exchange of the
  /// state overlapped by the source build's interior planes (which read no
  /// z ghost — the source at planes 1..nz-2).  Interior and boundary builds
  /// are pure per-point maps over disjoint plane sets, so the split cannot
  /// change a bit (test-enforced against the single-domain solver).
  void refresh_state_and_build_source() {
    run_phase([this](int r) {
      auto& s = solver(r);
      if (!state_ghost_phase(r, /*axes=*/2)) return;
      auto comps = state_comps(r);
      fill_state_bc_axis(r, 2);
      comm_.post_axis(Comm::kChanState, r, comps.data(), common::kNumVars, 2);
      s.build_sigma_source_interior(s.stage_field());
      if (!comm_.complete_axis(Comm::kChanState, r, comps.data(),
                               common::kNumVars, 2))
        return;
      s.build_sigma_source_boundary(s.stage_field());
    });
  }

  void refresh_sigma_ghosts() {
    run_phase([this](int r) { sigma_ghost_phase(r, /*axes=*/3); });
  }

  /// Sigma bc-fill + post + complete for axes [0, axes); returns false on
  /// an aborted exchange.
  bool sigma_ghost_phase(int r, int axes) {
    common::Field3<S>* sig = &solver(r).sigma_field();
    for (int axis = 0; axis < axes; ++axis) {
      fill_sigma_bc_axis(r, axis);
      comm_.post_axis(Comm::kChanSigma, r, &sig, 1, axis);
      if (!comm_.complete_axis(Comm::kChanSigma, r, &sig, 1, axis))
        return false;
    }
    return true;
  }

  /// Final Sigma ghost refresh of an RHS evaluation, with the flux sweeps
  /// overlapping the last axis' in-flight exchange: post the z faces, run
  /// every interior flux line (no ghost reads), then complete and finish
  /// the boundary shell.
  void final_sigma_and_fluxes() {
    run_phase([this](int r) {
      auto& s = solver(r);
      if (!sigma_ghost_phase(r, /*axes=*/2)) return;
      common::Field3<S>* sig = &s.sigma_field();
      fill_sigma_bc_axis(r, 2);
      comm_.post_axis(Comm::kChanSigma, r, &sig, 1, 2);
      // Only the z exchange is in flight, so only z is shaved from the
      // interior: every cell >= 3 planes off the z faces computes while
      // the halo moves, and just the two z slabs wait for completion.
      auto& rhs = rhs_[local_index(r)];
      s.compute_fluxes_interior(s.stage_field(), rhs, 2);
      if (!comm_.complete_axis(Comm::kChanSigma, r, &sig, 1, 2)) return;
      s.compute_fluxes_boundary(s.stage_field(), rhs, 2);
    });
  }

  /// Which sides of `axis` are physical boundaries for `rank` (no comm
  /// neighbor)?
  [[nodiscard]] std::array<bool, 2> physical_sides(int rank, int axis) const {
    const auto lo = static_cast<mesh::Face>(2 * axis);
    const auto hi = static_cast<mesh::Face>(2 * axis + 1);
    return {comm_.decomp().neighbor(rank, lo) < 0,
            comm_.decomp().neighbor(rank, hi) < 0};
  }

  Comm comm_;
  common::SolverConfig cfg_;
  fv::BcSpec bc_;
  core::SigmaBcSpec sigma_bc_;
  DistOptions opts_;
  double time_ = 0.0;
  /// Global rank ids owned by this process; ranks_[i] solves
  /// local_ranks_[i]'s block.
  std::vector<int> local_ranks_;
  std::vector<std::unique_ptr<core::IgrSolver3D<Policy>>> ranks_;
  /// Caller-owned RHS of each local rank (ranks_[i]'s in rhs_[i]).
  std::vector<common::StateField3<C>> rhs_;
  std::unique_ptr<RankTeam> team_;
  std::vector<double> dts_;
};

}  // namespace igr::sim
