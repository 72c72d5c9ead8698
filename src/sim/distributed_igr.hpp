#pragma once
/// \file distributed_igr.hpp
/// Rank-parallel decomposed IGR stepping over the simulated communicator.
///
/// Each rank owns an IgrSolver3D on its block and runs on its own worker
/// thread (sim::RankTeam).  Every rank runs its solver's own stage code —
/// the Sigma source, the relaxation sweeps, and the streamed flux/RK stage
/// with the next step's dt folded into the final stage — exactly as the
/// single-domain IgrSolver3D::step_fixed does.  The driver only fills
/// ghosts between those calls (physical faces plus halo exchange), in
/// barrier-delimited SPMD phases, exchanging halos exactly where a
/// production MPI code would.  Per RK stage:
///   - state ghosts, then the Sigma source;
///   - per relaxation sweep: Sigma ghosts, then the sweep (the elliptic
///     solve is the only globally coupled kernel in the scheme);
///   - final Sigma ghosts, then the flux/RK stage (and on the last stage
///     the commit of the step).
/// step() adds one phase that reads each rank's next_dt() and a dt
/// allreduce: 22 phases per step at 5 sweeps.  Within a phase, ranks
/// synchronize pairwise through Comm's posted-epoch halo pipeline (post /
/// complete per axis).  The state and Sigma channels can additionally
/// narrow their wire payload to binary16 (DistOptions::halo_wire), halving
/// FP32 halo bytes.
///
/// With Jacobi sweeps the decomposed run is *bitwise identical* to the
/// single-domain run — independent of rank layout (test-enforced,
/// including dt and Sigma; on a 1x1x1 layout it is also the whole-block
/// Sigma-phase reference for the single-domain solver's plane-pipelined
/// sweeps).  With Gauss–Seidel the block-local sweeps use previous-sweep
/// halo values (block Gauss–Seidel), which converges to the same Sigma but
/// is not bitwise equal — the same trade production codes make.

#include <array>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/timer.hpp"
#include "core/igr_solver3d.hpp"
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
    // Each rank's solver is built on the worker that steps it, so that
    // worker first-touches (zero-fills) its own pages.  A rank that fails
    // to construct rethrows its error here once every worker is done.
    ranks_.resize(local_ranks_.size());
    team_->run([&](int li) {
      const auto i = static_cast<std::size_t>(li);
      const auto& g = comm_.local_grid(local_ranks_[i]);
      ranks_[i] =
          std::make_unique<core::IgrSolver3D<Policy>>(g, cfg, bc, recon);
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
    // Each rank's next_dt() is the dt folded into its previous step's final
    // RK stage (or a fresh scan after init/scatter), over its own block.
    // The cell-wise max/min reductions decompose exactly, so the min over
    // ranks is bitwise the single-domain dt under Jacobi sweeps.
    run_phase([this](int r) { dts_[local_index(r)] = solver(r).next_dt(); });
    // Local min over this process's ranks, then the cross-process min.
    // min is associative and exact, so the composition is bitwise the
    // single-domain reduction (in-process the global step is an identity).
    const double dt = comm_.allreduce_min_global(Comm::allreduce_min(dts_));
    step_fixed(dt);
    return dt;
  }

  /// One step at `dt`: IgrSolver3D::step_fixed's stages on every rank, with
  /// the ghost fills of each stage's input and of Sigma between them.
  void step_fixed(double dt) {
    const bool sigma_active = cfg_.sigma_sweeps > 0 && cfg_.alpha_factor > 0.0;
    for (int si = 0; si < 3; ++si) {
      run_phase([this, si, sigma_active](int r) {
        auto& q = solver(r).stage_input(si);
        if (exchange_state_ghosts(r, q) && sigma_active)
          solver(r).build_sigma_source(q);
      });
      for (int sw = 0; sigma_active && sw < cfg_.sigma_sweeps; ++sw) {
        run_phase([this](int r) {
          if (exchange_sigma_ghosts(r)) solver(r).sigma_sweep();
        });
      }
      run_phase([this, si, dt, sigma_active](int r) {
        if (sigma_active && !exchange_sigma_ghosts(r)) return;
        auto& s = solver(r);
        s.flux_rk_stage(si, dt);
        if (si == 2) s.finish_step(dt);
      });
    }
    // An aborted exchange in the last phase returned early on some rank;
    // refuse here rather than report a step that did not happen.
    throw_if_poisoned();
    time_ += dt;
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

  /// Refuse to go on once any phase aborted the communicator.
  void throw_if_poisoned() const {
    if (!comm_.aborted()) return;
    std::string msg =
        "DistributedIgr: a previous phase failed and poisoned the "
        "communicator; the decomposed state is no longer consistent";
    const std::string why = comm_.abort_reason();
    if (!why.empty()) msg += " (" + why + ")";
    throw std::runtime_error(msg);
  }

  /// Run one SPMD phase over this process's ranks (the phase callback
  /// receives *global* rank ids).  A rank that throws aborts the
  /// communicator first so no peer waits forever on its unposted halos.
  /// The abort latches: once any phase failed, exchanges (and hence ghost
  /// contents) are undefined, so every later phase refuses loudly instead
  /// of silently stepping on corrupt halos.
  template <class Fn>
  void run_phase(Fn&& fn) {
    throw_if_poisoned();
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

  /// Physical-face fill + interior-face exchange of state `q` of rank `r`,
  /// interleaved per axis in the same x,y,z order as the single-domain
  /// ghost fill; returns false on an aborted exchange.
  bool exchange_state_ghosts(int r, common::StateField3<S>& q) {
    std::array<common::Field3<S>*, common::kNumVars> comps{};
    for (int v = 0; v < common::kNumVars; ++v)
      comps[static_cast<std::size_t>(v)] = &q[v];
    auto& s = solver(r);
    for (int axis = 0; axis < 3; ++axis) {
      fv::apply_bc_axis(q, bc_, s.grid(), s.eos(), axis,
                        physical_sides(r, axis));
      comm_.post_axis(Comm::kChanState, r, comps.data(), common::kNumVars,
                      axis);
      if (!comm_.complete_axis(Comm::kChanState, r, comps.data(),
                               common::kNumVars, axis))
        return false;
    }
    return true;
  }

  /// The same for rank `r`'s Sigma.  Per-face kinds derive from the state
  /// BC: Sigma wraps across the periodic faces and clamps elsewhere,
  /// matching the single-domain solver's sigma_bc_from(bc_) exactly
  /// (decomposition cannot change the ghost kind a face sees).
  bool exchange_sigma_ghosts(int r) {
    common::Field3<S>* sig = &solver(r).sigma_field();
    for (int axis = 0; axis < 3; ++axis) {
      const auto sides = physical_sides(r, axis);
      if (sides[0] || sides[1])
        core::fill_sigma_ghosts_axis(*sig, sigma_bc_, axis, sides);
      comm_.post_axis(Comm::kChanSigma, r, &sig, 1, axis);
      if (!comm_.complete_axis(Comm::kChanSigma, r, &sig, 1, axis))
        return false;
    }
    return true;
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
  std::unique_ptr<RankTeam> team_;
  std::vector<double> dts_;
};

}  // namespace igr::sim
