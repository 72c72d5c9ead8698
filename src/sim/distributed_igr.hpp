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
/// complete per axis).  Halos move at storage width, so a 16-bit run
/// exchanges 2-byte ghost values.  The process grid wraps across exactly
/// the axes whose two faces are both periodic; every other domain face is
/// filled by the BC on the rank that owns it.
///
/// With Jacobi sweeps the decomposed run is *bitwise identical* to the
/// single-domain run — independent of rank layout (test-enforced,
/// including dt and Sigma; on a 1x1x1 layout it is also the reference
/// for the single-domain solver's own ghost fills).  With Gauss–Seidel the block-local sweeps use previous-sweep
/// halo values (block Gauss–Seidel), which converges to the same Sigma but
/// is not bitwise equal — the same trade production codes make.

#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/timer.hpp"
#include "core/igr_solver3d.hpp"
#include "sim/comm.hpp"
#include "sim/fault.hpp"
#include "sim/rank_team.hpp"

namespace igr::sim {

/// Execution options for the rank-parallel driver.
struct DistOptions {
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
      : comm_(global, rx, ry, rz, bc.periodic_axes(), opts.transport),
        cfg_(cfg),
        bc_(bc),
        sigma_bc_(core::sigma_bc_from(bc)),
        opts_(opts) {
    comm_.validate_driver_decomp(kNg);
    // A face that wraps to a held opposite face reads the far end of the
    // domain, which a split axis leaves on another rank: each rank would
    // wrap its own block instead.
    for (std::size_t a = 0; a < 3; ++a) {
      if ((bc.kind[2 * a] == fv::BcKind::kPeriodic) !=
              (bc.kind[2 * a + 1] == fv::BcKind::kPeriodic) &&
          comm_.decomp().layout()[a] > 1)
        throw std::invalid_argument(
            "DistributedIgr: axis " + std::to_string(a) +
            " has one periodic face and cannot be split across ranks");
    }
    comm_.set_fault_injector(opts_.fault);
    comm_.set_wait_timeout(opts_.comm_timeout_s);
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
    common::StateField3<S> out = global_shaped<common::StateField3<S>>();
    gather_fields(components(out), kBlobTagState,
                  [](const auto& s) { return components(s.state()); });
    return out;
  }

  /// Assemble the global Sigma field (output/diagnostics).  Collective
  /// over multi-process transports, like gather().
  [[nodiscard]] common::Field3<S> gather_sigma() const {
    common::Field3<S> out = global_shaped<common::Field3<S>>();
    gather_fields({&out}, kBlobTagSigma, [](const auto& s) {
      return std::vector<const common::Field3<S>*>{&s.sigma()};
    });
    return out;
  }

  /// Distribute a global conservative state over the rank blocks — the
  /// restart inverse of gather().  Only interiors are written; ghosts are
  /// refilled by the next step's exchange + BC fill, exactly as after
  /// init().  Each rank's cached dt is invalidated (the cache belonged to
  /// the pre-scatter state).
  void scatter(const common::StateField3<S>& global) {
    scatter_fields(components(global), "scatter",
                   [](auto& s) { return components(s.state()); });
  }

  /// Distribute a global Sigma field (restart warm start) — inverse of
  /// gather_sigma().
  void scatter_sigma(const common::Field3<S>& global) {
    scatter_fields({&global}, "scatter_sigma", [](auto& s) {
      return std::vector<common::Field3<S>*>{&s.sigma_field()};
    });
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

  // --- gather/scatter over lists of fields (the state's components, or
  // Sigma alone), the convention Comm::post_axis uses -------------------

  /// The kNumVars component fields of a state, as a list.
  template <class Q>
  static auto components(Q& q) {
    std::vector<std::remove_reference_t<decltype(q[0])>*> f;
    for (int c = 0; c < common::kNumVars; ++c) f.push_back(&q[c]);
    return f;
  }

  /// A global-grid field on the IO root, a 1-cell placeholder elsewhere.
  template <class F>
  [[nodiscard]] F global_shaped() const {
    if (comm_.multi_process() && !comm_.is_root()) return F(1, 1, 1, 0);
    const auto& g = comm_.global_grid();
    return F(g.nx(), g.ny(), g.nz(), kNg);
  }

  /// Cells of global rank `r`'s block.
  [[nodiscard]] std::size_t block_cells(int r) const {
    const auto b = comm_.decomp().block(r);
    return static_cast<std::size_t>(b.n[0]) *
           static_cast<std::size_t>(b.n[1]) *
           static_cast<std::size_t>(b.n[2]);
  }

  /// Call `fn(block-local cell, global cell)` over global rank `r`'s block,
  /// in packing order (i fastest).
  template <class Fn>
  void for_block(int r, Fn&& fn) const {
    const auto b = comm_.decomp().block(r);
    for (int k = 0; k < b.n[2]; ++k)
      for (int j = 0; j < b.n[1]; ++j)
        for (int i = 0; i < b.n[0]; ++i)
          fn(std::array<int, 3>{i, j, k},
             std::array<int, 3>{b.lo[0] + i, b.lo[1] + j, b.lo[2] + k});
  }

  /// Assemble the global fields `out` from every rank's `pick(solver)`
  /// fields.  Over a multi-process transport non-root processes send
  /// their block to the root (tagged `tag`) and leave `out` untouched.
  template <class Pick>
  void gather_fields(const std::vector<common::Field3<S>*>& out, int tag,
                     Pick pick) const {
    if (comm_.multi_process() && !comm_.is_root()) {
      send_to_root(pick(*ranks_[0]), tag);
      return;
    }
    for (const int r : local_ranks_) {
      const auto src = pick(solver_const(r));
      for (std::size_t c = 0; c < out.size(); ++c)
        for_block(r, [&](auto l, auto g) {
          (*out[c])(g[0], g[1], g[2]) = (*src[c])(l[0], l[1], l[2]);
        });
    }
    if (comm_.multi_process()) {
      for (int r = 0; r < comm_.ranks(); ++r)
        if (r != local_ranks_[0]) receive_from(out, r, tag);
    }
  }

  /// Copy each local rank's block of the global fields `global` into its
  /// `pick(solver)` fields, and invalidate its dt cache.
  template <class Pick>
  void scatter_fields(const std::vector<const common::Field3<S>*>& global,
                      const char* what, Pick pick) {
    const auto& g = comm_.global_grid();
    if (global[0]->nx() != g.nx() || global[0]->ny() != g.ny() ||
        global[0]->nz() != g.nz())
      throw std::invalid_argument(
          std::string("DistributedIgr::") + what +
          ": global field shape does not match the decomposed grid");
    for (const int r : local_ranks_) {
      auto& s = solver(r);
      const auto dst = pick(s);
      for (std::size_t c = 0; c < global.size(); ++c)
        for_block(r, [&](auto l, auto gl) {
          (*dst[c])(l[0], l[1], l[2]) = (*global[c])(gl[0], gl[1], gl[2]);
        });
      s.invalidate_dt_cache();
    }
  }

  /// Ship this process's block of `fields` to the root as one blob.
  void send_to_root(const std::vector<const common::Field3<S>*>& fields,
                    int tag) const {
    const int r = local_ranks_[0];
    std::vector<unsigned char> blob(fields.size() * block_cells(r) *
                                    sizeof(S));
    S* p = reinterpret_cast<S*>(blob.data());
    for (const auto* f : fields)
      for_block(r, [&](auto l, auto) { *p++ = (*f)(l[0], l[1], l[2]); });
    comm_.transport().send_blob(0, tag, blob.data(), blob.size());
  }

  /// Receive rank `r`'s blob into its block of the global fields `out`.
  void receive_from(const std::vector<common::Field3<S>*>& out, int r,
                    int tag) const {
    const auto blob = comm_.transport().recv_blob(r, tag);
    if (blob.size() != out.size() * block_cells(r) * sizeof(S))
      throw TransportError("DistributedIgr: gather blob from rank " +
                           std::to_string(r) + " has the wrong size");
    const S* p = reinterpret_cast<const S*>(blob.data());
    for (auto* f : out)
      for_block(r, [&](auto, auto g) { (*f)(g[0], g[1], g[2]) = *p++; });
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
