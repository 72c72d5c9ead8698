#include "app/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "common/half.hpp"
#include "common/telemetry.hpp"
#include "io/checkpoint.hpp"

namespace igr::app {

StepMeters StepMeters::operator-(const StepMeters& earlier) const {
  StepMeters d = *this;
  d.steps -= earlier.steps;
  d.wall_ns -= earlier.wall_ns;
  for (std::size_t p = 0; p < d.phase_s.size(); ++p)
    d.phase_s[p] -= earlier.phase_s[p];
  d.sigma_sweeps -= earlier.sigma_sweeps;
  for (std::size_t a = 0; a < 3; ++a) {
    d.halo_wait_ns[a] -= earlier.halo_wait_ns[a];
    d.halo_wait_epochs[a] -= earlier.halo_wait_epochs[a];
  }
  d.wire_bytes -= earlier.wire_bytes;
  return d;
}

double StepMeters::grind_ns(std::size_t cells) const {
  if (cells == 0 || steps == 0) return 0.0;
  return static_cast<double>(wall_ns) /
         (static_cast<double>(cells) * static_cast<double>(steps));
}

template <class Policy>
Simulation<Policy>::Simulation(Params params)
    : params_(std::move(params)), eos_(params_.cfg.gamma) {
  const auto& rk = params_.ranks;
  if (rk[0] < 1 || rk[1] < 1 || rk[2] < 1)
    throw std::invalid_argument("Simulation: rank counts must be positive");
  if (rk[0] * rk[1] * rk[2] > 1) {
    if (params_.scheme != SchemeKind::kIgr)
      throw std::invalid_argument(
          "Simulation: decomposed runs are IGR-only (the baseline has no "
          "distributed driver)");
    dist_ = std::make_unique<sim::DistributedIgr<Policy>>(
        params_.grid, rk[0], rk[1], rk[2], params_.cfg, params_.bc,
        params_.recon, params_.dist);
  } else if (params_.scheme == SchemeKind::kIgr) {
    igr_ = std::make_unique<core::IgrSolver3D<Policy>>(
        params_.grid, params_.cfg, params_.bc, params_.recon);
  } else {
    if constexpr (std::is_same_v<Policy, common::Fp16x32> ||
                  std::is_same_v<Policy, common::Bf16x32>) {
      throw std::invalid_argument(
          "Simulation: the WENO/HLLC baseline is numerically unstable below "
          "FP64 (paper §4.3); 16-bit storage is IGR-only");
    } else {
      weno_ = std::make_unique<baseline::WenoHllcSolver3D<Policy>>(
          params_.grid, params_.cfg, params_.bc);
    }
  }
}

template <class Policy>
void Simulation<Policy>::init(const core::PrimFn& prim) {
  if (igr_) igr_->init(prim);
  if (weno_) weno_->init(prim);
  if (dist_) dist_->init(prim);
  gathered_dirty_ = true;
}

template <class Policy>
double Simulation<Policy>::step() {
  gathered_dirty_ = true;
  const std::int64_t t0 = common::telemetry::now_ns();
  const double dt =
      dist_ ? dist_->step() : (igr_ ? igr_->step() : weno_->step());
  clock_.wall_ns += common::telemetry::now_ns() - t0;
  clock_.last_step_t0_ns = t0;
  ++clock_.steps;
  return dt;
}

template <class Policy>
double Simulation<Policy>::run_steps(int n) {
  const double t0 = time();
  for (int i = 0; i < n; ++i) step();
  return time() - t0;
}

template <class Policy>
void Simulation<Policy>::run_until(double t_end) {
  while (time() < t_end - 1e-14) {
    step();  // CFL-limited; overshoot is acceptable for jet demos
  }
}

template <class Policy>
double Simulation<Policy>::time() const {
  if (dist_) return dist_->time();
  return igr_ ? igr_->time() : weno_->time();
}

template <class Policy>
StepMeters Simulation<Policy>::meters() const {
  StepMeters m = clock_;
  if (igr_ && igr_->phase_profile().enabled()) {
    m.has_phases = true;
    for (int p = 0; p < common::PhaseProfile::kNumPhases; ++p)
      m.phase_s[static_cast<std::size_t>(p)] = igr_->phase_profile().seconds(
          static_cast<common::PhaseProfile::Phase>(p));
  }
  m.sigma_sweeps = sigma_sweeps_done();
  if (dist_) {
    const sim::Comm& comm = dist_->comm();
    for (int a = 0; a < 3; ++a) {
      m.halo_wait_ns[static_cast<std::size_t>(a)] = comm.halo_wait_ns(a);
      m.halo_wait_epochs[static_cast<std::size_t>(a)] =
          comm.halo_wait_epochs(a);
    }
    m.wire_bytes = comm.bytes_exchanged();
  }
  return m;
}

template <class Policy>
double Simulation<Policy>::grind_ns() const {
  return clock_.grind_ns(params_.grid.cells());
}

template <class Policy>
const common::PhaseProfile* Simulation<Policy>::local_phase_profile() const {
  if (igr_) return &igr_->phase_profile();
  if (dist_ && !dist_->local_ranks().empty())
    return &dist_->rank(dist_->local_ranks().front()).phase_profile();
  return nullptr;
}

template <class Policy>
std::size_t Simulation<Policy>::local_phase_cells() const {
  if (igr_) return params_.grid.cells();
  if (dist_ && !dist_->local_ranks().empty())
    return dist_->rank(dist_->local_ranks().front()).grid().cells();
  return 0;
}

template <class Policy>
std::uint64_t Simulation<Policy>::sigma_sweeps_done() const {
  if (igr_) return igr_->sigma_sweeps_done();
  std::uint64_t total = 0;
  if (dist_)
    for (const int r : dist_->local_ranks())
      total += dist_->rank(r).sigma_sweeps_done();
  return total;
}

template <class Policy>
std::size_t Simulation<Policy>::memory_bytes() const {
  if (dist_) return dist_->memory_bytes();
  return igr_ ? igr_->memory_bytes() : weno_->memory_bytes();
}

template <class Policy>
bool Simulation<Policy>::multi_process() const {
  return dist_ && dist_->multi_process();
}

template <class Policy>
bool Simulation<Policy>::is_io_root() const {
  return !multi_process() || dist_->is_root();
}

template <class Policy>
int Simulation<Policy>::local_rank() const {
  return multi_process() ? dist_->comm().transport().local_rank() : -1;
}

template <class Policy>
const common::StateField3<typename Policy::storage_t>&
Simulation<Policy>::state() const {
  if (dist_) {
    if (multi_process() && !dist_->is_root())
      throw std::logic_error(
          "Simulation::state(): global state lives on the IO root only "
          "under a multi-process transport (gate on is_io_root())");
    if (gathered_dirty_) {
      gathered_ = dist_->gather();
      gathered_dirty_ = false;
    }
    return gathered_;
  }
  return igr_ ? igr_->state() : weno_->state();
}

template <class Policy>
sim::DistributedIgr<Policy>& Simulation<Policy>::dist() {
  if (!dist_)
    throw std::logic_error("Simulation::dist(): not a decomposed run");
  // The caller can step the driver directly (e.g. step_fixed), which this
  // facade cannot observe — treat any mutable access as invalidating the
  // gathered-state cache.
  gathered_dirty_ = true;
  return *dist_;
}

template <class Policy>
FlowDiagnostics Simulation<Policy>::diagnostics() const {
  const auto& q = state();
  const auto& g = params_.grid;
  FlowDiagnostics d;
  d.min_density = 1e300;
  d.min_pressure = 1e300;
  const int nx = g.nx(), ny = g.ny(), nz = g.nz();
  const double dv = g.dx() * g.dy() * g.dz();
  // Cell velocities, kept for the curl stencil of the enstrophy integral.
  const std::size_t ncell = g.cells();
  std::vector<double> vel[3];
  for (auto& v : vel) v.resize(ncell);
  const auto at = [nx, ny](int i, int j, int k) {
    return (static_cast<std::size_t>(k) * ny + static_cast<std::size_t>(j)) *
               nx +
           static_cast<std::size_t>(i);
  };
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        common::Cons<double> qc;
        for (int c = 0; c < common::kNumVars; ++c)
          qc[c] = static_cast<double>(q[c](i, j, k));
        const auto w = eos_.to_prim(qc);
        const double speed = std::sqrt(w.speed2());
        // Absolute threshold in the library's nondimensional convention
        // (ambient p ~ O(1)): below it a cell is a start-up transient.
        if (w.p > 1e-10) {
          const double cs = eos_.sound_speed(w.rho, w.p);
          d.max_mach = std::max(d.max_mach, speed / cs);
        } else {
          ++d.nonpositive_pressure_cells;
        }
        d.min_density = std::min(d.min_density, w.rho);
        d.max_density = std::max(d.max_density, w.rho);
        d.min_pressure = std::min(d.min_pressure, w.p);
        d.kinetic_energy += 0.5 * w.rho * w.speed2() * dv;
        d.total_mass += w.rho * dv;
        d.total_energy += qc.e * dv;
        vel[0][at(i, j, k)] = w.u;
        vel[1][at(i, j, k)] = w.v;
        vel[2][at(i, j, k)] = w.w;
      }
    }
  }
  // Enstrophy: |curl u|^2 integrated with central differences, degraded to
  // one-sided at the domain faces (no ghost data is consulted, so the
  // integral is identical for gathered decomposed states).
  const auto deriv = [&](int comp, int axis, int i, int j, int k) {
    int c[3] = {i, j, k};
    const int n[3] = {nx, ny, nz};
    const double h[3] = {g.dx(), g.dy(), g.dz()};
    int lo[3] = {i, j, k}, hi[3] = {i, j, k};
    lo[axis] = std::max(c[axis] - 1, 0);
    hi[axis] = std::min(c[axis] + 1, n[axis] - 1);
    const double span = (hi[axis] - lo[axis]) * h[axis];
    if (span <= 0.0) return 0.0;  // single-cell extent along `axis`
    return (vel[comp][at(hi[0], hi[1], hi[2])] -
            vel[comp][at(lo[0], lo[1], lo[2])]) /
           span;
  };
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const double wx = deriv(2, 1, i, j, k) - deriv(1, 2, i, j, k);
        const double wy = deriv(0, 2, i, j, k) - deriv(2, 0, i, j, k);
        const double wz = deriv(1, 0, i, j, k) - deriv(0, 1, i, j, k);
        d.enstrophy += (wx * wx + wy * wy + wz * wz) * dv;
      }
    }
  }
  return d;
}

template <class Policy>
SolverHealth Simulation<Policy>::health() const {
  if (igr_) return scan_health(igr_->state(), eos_, igr_->config().exec());
  if (weno_) {
    // The baseline has no exec space; its scan stays serial.
    return scan_health(weno_->state(), eos_, common::ExecSpace::serial());
  }
  // Decomposed: scan each local rank block on its worker and merge.  The
  // rank interiors partition the global interior, so summed counters and
  // reduced minima equal the single-domain scan, and no field is gathered.
  std::vector<SolverHealth> parts(dist_->local_ranks().size());
  dist_->for_each_local_solver(
      [&](std::size_t i, const core::IgrSolver3D<Policy>& s) {
        parts[i] = scan_health(s.state(), eos_, s.config().exec());
      });
  SolverHealth h;
  for (const auto& p : parts) h.merge(p);
  if (!multi_process()) return h;
  // Multi-process: a collective (every process must reach it in the same
  // schedule) that moves only the counters and minima.
  const auto& comm = dist_->comm();
  const auto sum_sz = [&comm](std::size_t v) {
    return static_cast<std::size_t>(
        comm.allreduce_sum_global(static_cast<double>(v)));
  };
  h.cells = sum_sz(h.cells);
  h.nonfinite_cells = sum_sz(h.nonfinite_cells);
  h.negative_density_cells = sum_sz(h.negative_density_cells);
  h.nonpositive_pressure_cells = sum_sz(h.nonpositive_pressure_cells);
  h.min_density = comm.allreduce_min_global(h.min_density);
  h.min_pressure = comm.allreduce_min_global(h.min_pressure);
  return h;
}

namespace {

/// Both files are stamped by the same save; a mismatched sibling .sigma
/// would silently break the bitwise-continuation contract.  Compare the
/// headers *before* mutating any solver field so a caught throw leaves the
/// simulation untouched.
void check_sigma_sibling(const std::string& path) {
  const double t_state = io::read_checkpoint_header(path).time;
  const double t_sigma = io::read_checkpoint_header(path + ".sigma").time;
  if (t_sigma != t_state)
    throw std::runtime_error(
        "Simulation::load_checkpoint: " + path + " (t=" +
        std::to_string(t_state) + ") and its .sigma (t=" +
        std::to_string(t_sigma) + ") are from different saves");
}

}  // namespace

template <class Policy>
void Simulation<Policy>::save_checkpoint(const std::string& path) const {
  if (multi_process()) {
    // Collective: gathers run on every process; only the root touches the
    // filesystem.  The final sum doubles as (a) a barrier — no process
    // resumes stepping until the files are durably renamed — and (b) a
    // failure broadcast, so a root-side IO error throws *everywhere* and
    // the collectives of the next schedule entry stay matched.
    const auto q = dist_->gather();
    const auto sig = dist_->gather_sigma();
    double failed = 0.0;
    std::string err;
    if (dist_->is_root()) {
      try {
        io::write_checkpoint(path, q, dist_->time());
        io::write_checkpoint_field(path + ".sigma", sig, dist_->time());
      } catch (const std::exception& e) {
        failed = 1.0;
        err = e.what();
      }
    }
    if (dist_->comm().allreduce_sum_global(failed) != 0.0)
      throw std::runtime_error(
          err.empty() ? "Simulation::save_checkpoint: write failed on the "
                        "IO root"
                      : err);
    return;
  }
  if (dist_) {
    // Gather to the global interior so the file carries no trace of the
    // rank layout — the restart side scatters over whatever layout it has.
    io::write_checkpoint(path, dist_->gather(), dist_->time());
    io::write_checkpoint_field(path + ".sigma", dist_->gather_sigma(),
                               dist_->time());
  } else if (igr_) {
    io::write_checkpoint(path, igr_->state(), igr_->time());
    io::write_checkpoint_field(path + ".sigma", igr_->sigma(), igr_->time());
  } else {
    io::write_checkpoint(path, weno_->state(), weno_->time());
  }
}

template <class Policy>
void Simulation<Policy>::load_checkpoint(const std::string& path) {
  gathered_dirty_ = true;
  if (dist_) {
    check_sigma_sibling(path);
    const auto& g = params_.grid;
    common::StateField3<S> q(g.nx(), g.ny(), g.nz(),
                             sim::DistributedIgr<Policy>::kNg);
    common::Field3<S> sig(g.nx(), g.ny(), g.nz(),
                          sim::DistributedIgr<Policy>::kNg);
    const double t = io::read_checkpoint(path, q);
    io::read_checkpoint_field(path + ".sigma", sig);
    dist_->scatter(q);
    dist_->scatter_sigma(sig);
    dist_->set_time(t);
  } else if (igr_) {
    check_sigma_sibling(path);
    const double t = io::read_checkpoint(path, igr_->state());
    io::read_checkpoint_field(path + ".sigma", igr_->sigma_field());
    igr_->set_time(t);
    // The solver's cached next-step dt belongs to the pre-restore
    // state; force the next step() to rescan (which reproduces the same
    // bits the cache would have held for a matching state + Sigma).
    igr_->invalidate_dt_cache();
  } else {
    weno_->set_time(io::read_checkpoint(path, weno_->state()));
  }
}

template <class Policy>
void Simulation<Policy>::write_vtk(const std::string& path) const {
  if (multi_process() && !dist_->is_root()) {
    // Participate in the root's gathers, write nothing.
    (void)dist_->gather();
    (void)dist_->gather_sigma();
    return;
  }
  io::VtkWriter writer(params_.grid);
  writer.open(path);
  writer.add_state(state(), eos_);
  if (igr_) writer.add_scalar("entropic_pressure", igr_->sigma());
  if (dist_) writer.add_scalar("entropic_pressure", dist_->gather_sigma());
  writer.close();
}

template class Simulation<common::Fp64>;
template class Simulation<common::Fp32>;
template class Simulation<common::Fp16x32>;
template class Simulation<common::Bf16x32>;

}  // namespace igr::app
