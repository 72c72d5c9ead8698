/// \file jobs.cpp
/// Workload definitions, the seeded initial condition, and the job runner:
/// one closed-loop job sets up a simulation through the public front door
/// (cases::RunOptions::to_params -> app::Simulation), steps it back to back,
/// and checks what it produced.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "app/jet_config.hpp"
#include "app/simulation.hpp"
#include "bench.hpp"
#include "cases/runner.hpp"
#include "common/hash.hpp"
#include "io/checkpoint.hpp"

namespace perfbench {

using namespace igr;

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

const char* prec_name(Prec p) {
  switch (p) {
    case Prec::kFp64: return "fp64";
    case Prec::kBf16x32: return "bf16x32";
    case Prec::kFp16x32: return "fp16x32";
  }
  return "?";
}

int storage_bytes(Prec p) { return p == Prec::kFp64 ? 8 : 2; }

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> v;
    {
      Workload w;
      w.name = "jet-fp64-cached";
      // Table 3 grind: FP64 recon5 jet at n=32, L3-resident, one thread;
      // flux-bound, and the bypass case for conversion lanes, barriers, comm
      // and IO
      w.case_name = "jet-single";
      w.n = 32;
      w.threads = 1;
      w.warmup = 2;
      w.timed = 20;
      v.push_back(w);
    }
    {
      Workload w;
      w.name = "jet33-bf16-streamed";
      // Fig. 1 33-engine array in bf16x32 at n=160 (6.1 M cells), exec width
      // 4: bytes moved, 16-bit lanes, 33-patch BC fills and team barriers
      w.case_name = "jet-33";
      w.prec = Prec::kBf16x32;
      w.n = 160;
      w.threads = 4;
      w.warmup = 1;
      w.timed = 8;
      v.push_back(w);
    }
    {
      Workload w;
      w.name = "jet-fp64-4rank";
      // Rank layer: FP64 jet at n=64 on 2x2x1 in-process ranks, one thread
      // each, Jacobi sweeps; RankTeam barriers, halo pack/wait/unpack and the
      // dt allreduce
      w.case_name = "jet-single";
      w.n = 64;
      w.ranks = {2, 2, 1};
      w.jacobi = true;
      w.threads = 1;
      w.warmup = 2;
      w.timed = 20;
      v.push_back(w);
    }
    return v;
  }();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

// ------------------------------------------------------- seeded jet input ---

namespace {

constexpr double kPi = 3.14159265358979323846;

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double unit(std::uint64_t& x) {
  return static_cast<double>(splitmix64(x) >> 11) * 0x1.0p-53;
}

app::JetConfig jet_for(const std::string& case_name) {
  if (case_name == "jet-33") return app::super_heavy_33();
  if (case_name == "jet-three") return app::three_engine_row();
  return app::single_engine();
}

}  // namespace

SeededIc make_ic(std::uint64_t seed) {
  SeededIc ic;
  ic.seed = seed;
  std::uint64_t x = seed;
  double sum = 0.0;
  for (int m = 0; m < 4; ++m) {
    SeededIc::Mode md;
    md.kx = 3 + static_cast<int>(splitmix64(x) % 9);
    md.ky = 3 + static_cast<int>(splitmix64(x) % 9);
    md.kz = 3 + static_cast<int>(splitmix64(x) % 9);
    md.phx = 2.0 * kPi * unit(x);
    md.phy = 2.0 * kPi * unit(x);
    md.phz = 2.0 * kPi * unit(x);
    md.amp = 0.5 + 0.5 * unit(x);
    sum += md.amp;
    ic.modes.push_back(md);
  }
  for (auto& md : ic.modes) md.amp /= sum;
  return ic;
}

core::PrimFn SeededIc::prim(const std::string& case_name) const {
  const app::JetConfig jet = jet_for(case_name);
  const auto amb = jet.ambient_state();
  const double cs = std::sqrt(jet.gamma * jet.ambient_p / jet.ambient_rho);
  return [amb, cs, m = modes, a = noise](double x, double y, double z) {
    double s = 0.0;
    for (const auto& md : m)
      s += md.amp * std::sin(md.kx * kPi * x + md.phx) *
           std::sin(md.ky * kPi * y + md.phy) *
           std::sin(md.kz * kPi * z + md.phz);
    auto w = amb;
    w.rho *= 1.0 + a * s;
    w.u += a * cs * s;
    return w;
  };
}

std::string SeededIc::json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"seed\": " << seed << ", \"noise\": " << noise << ", \"modes\": [";
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const auto& m = modes[i];
    os << (i ? ", " : "") << "{\"k\": [" << m.kx << ", " << m.ky << ", "
       << m.kz << "], \"phase\": [" << m.phx << ", " << m.phy << ", " << m.phz
       << "], \"amp\": " << m.amp << "}";
  }
  os << "]}";
  return os.str();
}

// -------------------------------------------------------------------- jobs ---

namespace {

/// Gate bounds on the state after the window, relative to the seed's own
/// initial totals (mass and energy enter through the inflow patches, so they
/// may grow, never shrink beyond round-off) and the jet cases' golden
/// max-density band.
constexpr double kMassLo = 0.999, kMassHi = 1.10;
constexpr double kEnergyLo = 0.999, kEnergyHi = 2.0;
constexpr double kRhoMaxLo = 1.0, kRhoMaxHi = 50.0;

/// TCP frame header bytes (every heartbeat is a bare header).
constexpr double kTcpHeaderBytes = 32.0;

struct Totals {
  double mass = 0.0, energy = 0.0, max_rho = 0.0;
};

template <class S>
Totals totals_of(const common::StateField3<S>& q, const mesh::Grid& g) {
  const double dv = g.dx() * g.dy() * g.dz();
  Totals t;
  t.max_rho = -1e300;
  for (int k = 0; k < g.nz(); ++k)
    for (int j = 0; j < g.ny(); ++j)
      for (int i = 0; i < g.nx(); ++i) {
        const double rho = static_cast<double>(q[common::kRho](i, j, k));
        t.mass += rho * dv;
        t.energy += static_cast<double>(q[common::kEnergy](i, j, k)) * dv;
        t.max_rho = std::max(t.max_rho, rho);
      }
  return t;
}

double file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(n);
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

struct Ctx {
  const Workload& w;
  const SeededIc& ic;
  const JobOptions& o;
  std::array<int, 3> ranks{1, 1, 1};
  bool tcp = false;
  bool io = false;
  std::string rdv;
  std::string ckpt;
  [[nodiscard]] int world() const { return ranks[0] * ranks[1] * ranks[2]; }
};

/// Window meter snapshot: phase seconds, per-rank busy seconds, sweeps,
/// halo meters and transport counters of this endpoint.
struct Snap {
  std::array<double, 5> phase{};
  std::vector<double> busy;
  std::uint64_t sweeps = 0, wait_ns = 0, epochs = 0, bytes = 0;
  std::uint64_t frames = 0, tbytes = 0, heartbeats = 0;
};

template <class Policy>
Snap snapshot(app::Simulation<Policy>& sim) {
  Snap s;
  if (const auto* p = sim.local_phase_profile())
    for (int ph = 0; ph < 5; ++ph)
      s.phase[static_cast<std::size_t>(ph)] =
          p->seconds(static_cast<common::PhaseProfile::Phase>(ph));
  s.sweeps = sim.sigma_sweeps_done();
  const auto busy_of = [](const common::PhaseProfile& p) {
    double b = 0.0;
    for (int ph = 0; ph < 5; ++ph)
      b += p.seconds(static_cast<common::PhaseProfile::Phase>(ph));
    return b;
  };
  // Decomposed solvers keep no phase profile, so per-rank busy time is
  // only known single-domain here (TCP endpoints derive theirs in drive()).
  if (sim.distributed()) {
    const auto& cm = sim.dist().comm();
    s.wait_ns = cm.halo_wait_ns_total();
    s.epochs = cm.halo_wait_epochs_total();
    s.bytes = cm.bytes_exchanged();
    const auto st = cm.transport().stats();
    s.frames = st.frames_sent;
    s.tbytes = st.bytes_sent;
    s.heartbeats = st.heartbeats_sent;
  } else if (const auto* p = sim.local_phase_profile()) {
    s.busy.push_back(busy_of(*p));
  }
  return s;
}

/// Drive one endpoint through a job: the whole simulation (tcp_rank < 0)
/// or one TCP rank of it.  Collectives run in the same order on every
/// endpoint; only the IO root reads global state.
template <class Policy>
void drive(const Ctx& c, int tcp_rank, Tracer* tr, JobResult& r) {
  using Sim = app::Simulation<Policy>;
  const double job_t0 = now_s();
  std::unique_ptr<Sim> sim;
  try {
    {
      Scope span(tr, "setup");
      const double t0 = now_s();
      const cases::CaseSpec* spec = cases::find(c.w.case_name);
      if (spec == nullptr)
        throw std::runtime_error("unknown case " + c.w.case_name);
      cases::RunOptions ro;
      ro.n = c.w.n;
      ro.ranks = c.ranks;
      ro.jacobi_sweeps = c.w.jacobi;
      ro.phase_timing = c.o.traced;
      ro.exec = common::ExecBackend::kOpenMP;
      ro.threads = c.w.threads;
      if (c.tcp) {
        ro.transport.kind = sim::TransportSpec::Kind::kTcp;
        ro.transport.world = c.world();
        ro.transport.rank = tcp_rank;
        ro.transport.dir = c.rdv;
      }
      const auto params = ro.to_params<Policy>(*spec);
      {
        Scope s(tr, "construct");
        const double t = now_s();
        sim = std::make_unique<Sim>(params);
        r.construct_s = now_s() - t;
      }
      {
        Scope s(tr, "init");
        const double t = now_s();
        sim->init(c.ic.prim(c.w.case_name));
        r.init_s = now_s() - t;
      }
      if (c.tcp) sim->dist().comm().barrier();
      r.setup_s = now_s() - t0;
    }
    r.cells = sim->grid().cells();
    r.local_cells = sim->local_phase_cells();
    r.memory_bytes = sim->memory_bytes();

    // The IO root assembles the global state (a collective gather under
    // tcp); other endpoints only take part.
    const auto gather = [&]() -> const common::StateField3<typename Sim::S>* {
      if (sim->multi_process() && !sim->is_io_root()) {
        (void)sim->dist().gather();
        return nullptr;
      }
      return &sim->state();
    };
    if (const auto* q = gather()) {
      const Totals t0 = totals_of(*q, sim->grid());
      r.mass0 = t0.mass;
      r.energy0 = t0.energy;
    }

    const auto step = [&](common::Fnv1a64& h) {
      const double dt = sim->step();
      ++r.attempted;
      if (!(std::isfinite(dt) && dt > 0.0)) {
        ++r.failed;
        if (r.failures.size() < 4)
          r.failures.push_back("step " + std::to_string(r.attempted) +
                               ": dt = " + fmt(dt));
      }
      h.update(&dt, sizeof dt);
    };
    const auto save = [&](const std::string& path) {
      Scope s(tr, "ckpt_save");
      const double t = now_s();
      sim->save_checkpoint(path);
      r.ckpt_write_ms.push_back(1e3 * (now_s() - t));
    };

    common::Fnv1a64 dt_hash;
    {
      Scope s(tr, "warmup");
      for (int i = 0; i < c.w.warmup; ++i) step(dt_hash);
    }
    if (c.tcp) sim->dist().comm().barrier();
    const Snap a = snapshot(*sim);
    double window_s = 0.0;
    std::string last_ckpt;
    {
      Scope s(tr, "window");
      for (int i = 0; i < c.w.timed; ++i) {
        const double t = now_s();
        {
          Scope st(tr, "step");
          step(dt_hash);
        }
        const double dts = now_s() - t;
        window_s += dts;
        r.step_ms.push_back(1e3 * dts);
        if (c.w.ckpt_every > 0 && c.io && (i + 1) % c.w.ckpt_every == 0) {
          last_ckpt = c.ckpt + "/step" + std::to_string(r.attempted);
          save(last_ckpt);
        }
      }
    }
    const Snap b = snapshot(*sim);
    r.dt_fnv = dt_hash.value();

    const double steps = c.w.timed;
    r.grind_ns = window_s * 1e9 / (static_cast<double>(r.cells) * steps);
    r.local_step_ns =
        window_s * 1e9 / (static_cast<double>(r.local_cells) * steps);
    for (std::size_t ph = 0; ph < 5; ++ph)
      r.phase_ns[ph] = (b.phase[ph] - a.phase[ph]) * 1e9 /
                       (static_cast<double>(r.local_cells) * steps);
    const double nlocal =
        sim->distributed()
            ? static_cast<double>(sim->dist().local_ranks().size())
            : 1.0;
    r.sweeps_per_step =
        static_cast<double>(b.sweeps - a.sweeps) / steps / nlocal;
    for (std::size_t i = 0; i < b.busy.size(); ++i)
      r.rank_busy_s.push_back(b.busy[i] - a.busy[i]);
    // A TCP endpoint's busy time is its window minus its own halo wait.
    if (c.tcp)
      r.rank_busy_s = {window_s - 1e-9 * static_cast<double>(b.wait_ns -
                                                             a.wait_ns)};
    // Raw endpoint totals; run_job normalizes them once every endpoint's
    // share is merged.
    r.halo_wait_ms_per_step = 1e-6 * static_cast<double>(b.wait_ns - a.wait_ns);
    r.halo_epochs_per_step = static_cast<double>(b.epochs - a.epochs);
    r.halo_mb_per_step = 1e-6 * static_cast<double>(b.bytes - a.bytes);
    const double hb = static_cast<double>(b.heartbeats - a.heartbeats);
    r.tcp_frames_per_step = static_cast<double>(b.frames - a.frames) - hb;
    r.tcp_bytes_per_step =
        static_cast<double>(b.tbytes - a.tbytes) - kTcpHeaderBytes * hb;

    // --- correctness of the window's result --------------------------------
    {
      Scope s(tr, "gather");
      const double t = now_s();
      const auto* q = gather();
      r.gather_ms = 1e3 * (now_s() - t);
      if (q != nullptr) {
        r.state_fnv = common::state_fnv1a(*q);
        const Totals t1 = totals_of(*q, sim->grid());
        r.mass = t1.mass;
        r.energy = t1.energy;
        r.max_rho = t1.max_rho;
      }
    }
    bool bad = false;
    {
      Scope s(tr, "health");
      const double t = now_s();
      const auto h = sim->health();
      r.health_ms = 1e3 * (now_s() - t);
      if (!h.healthy()) {
        bad = true;
        r.failures.push_back("health: " + h.describe());
      }
    }
    if (sim->is_io_root()) {
      const double mr = r.mass / r.mass0, er = r.energy / r.energy0;
      if (!(mr >= kMassLo && mr <= kMassHi)) {
        bad = true;
        r.failures.push_back("mass ratio " + fmt(mr) + " outside [" +
                             fmt(kMassLo) + ", " + fmt(kMassHi) + "]");
      }
      if (!(er >= kEnergyLo && er <= kEnergyHi)) {
        bad = true;
        r.failures.push_back("energy ratio " + fmt(er) + " outside [" +
                             fmt(kEnergyLo) + ", " + fmt(kEnergyHi) + "]");
      }
      if (!(r.max_rho >= kRhoMaxLo && r.max_rho <= kRhoMaxHi)) {
        bad = true;
        r.failures.push_back("max density " + fmt(r.max_rho) + " outside [" +
                             fmt(kRhoMaxLo) + ", " + fmt(kRhoMaxHi) + "]");
      }
    }

    // --- checkpoint, validate, continue, reload, continue again -----------
    if (c.io) {
      if (last_ckpt.empty()) {
        last_ckpt = c.ckpt + "/step" + std::to_string(r.attempted);
        save(last_ckpt);
      }
      if (sim->is_io_root()) {
        Scope s(tr, "ckpt_validate");
        const double t = now_s();
        const auto v1 = io::validate_checkpoint(last_ckpt);
        const auto v2 = io::validate_checkpoint(last_ckpt + ".sigma");
        r.validate_ms = 1e3 * (now_s() - t);
        r.ckpt_bytes = file_bytes(last_ckpt) + file_bytes(last_ckpt + ".sigma");
        if (!v1.ok || !v2.ok) {
          bad = true;
          r.failures.push_back("checkpoint invalid: " + v1.error + v2.error);
        }
      }
      const auto fnv_now = [&]() -> std::uint64_t {
        const auto* q = gather();
        return q ? common::state_fnv1a(*q) : 0;
      };
      common::Fnv1a64 hu, hr;
      {
        Scope s(tr, "continue");
        for (int i = 0; i < c.w.continue_steps; ++i) step(hu);
      }
      const std::uint64_t fnv_u = fnv_now();
      {
        Scope s(tr, "restart");
        const double t = now_s();
        {
          Scope sl(tr, "ckpt_load");
          const double tl = now_s();
          sim->load_checkpoint(last_ckpt);
          r.ckpt_read_ms = 1e3 * (now_s() - tl);
        }
        {
          Scope st(tr, "step");
          step(hr);
        }
        r.restart_s = now_s() - t;
      }
      {
        Scope s(tr, "continue");
        for (int i = 1; i < c.w.continue_steps; ++i) step(hr);
      }
      const std::uint64_t fnv_r = fnv_now();
      if (sim->is_io_root() && (fnv_r != fnv_u || hr.value() != hu.value())) {
        bad = true;
        r.failures.push_back("restarted continuation differs from the "
                             "uninterrupted pass");
      }
    }
    if (bad) r.failed = r.attempted;
    {
      Scope s(tr, "teardown");
      // An endpoint's last act may be a gather send that is still in flight
      // to the root.  Closing a socket with unread frames (a heartbeat) in
      // its receive queue resets the connection and discards what it has
      // yet to send, so no endpoint closes before every one is done.
      if (c.tcp) sim->dist().comm().barrier();
      sim.reset();
    }
    r.job_s = now_s() - job_t0;
  } catch (const std::exception& e) {
    // Poison the fabric so a peer endpoint unwinds instead of waiting out
    // its timeouts, then report.
    if (sim && sim->distributed()) sim->dist().comm().abort_exchanges(e.what());
    throw;
  }
}

template <class Policy>
JobResult run_job_t(const Workload& w, const SeededIc& ic, const JobOptions& o,
                    Tracer* tr) {
  const bool tcp = w.tcp && !o.single_rank;
  const bool io = w.ckpt_every > 0 && !o.single_rank;
  const DirGuard rdv(tcp ? unique_dir(o.scratch, "rdv") : "");
  const DirGuard ckpt(io ? unique_dir(o.scratch, "ckpt") : "");
  const Ctx c{w,
              ic,
              o,
              o.single_rank ? std::array<int, 3>{1, 1, 1} : w.ranks,
              tcp,
              io,
              rdv.path(),
              ckpt.path()};

  JobResult r;
  if (c.tcp) {
    const int world = c.world();
    std::vector<JobResult> ep(static_cast<std::size_t>(world));
    std::vector<std::exception_ptr> err(static_cast<std::size_t>(world));
    std::vector<std::thread> threads;
    for (int k = 0; k < world; ++k)
      threads.emplace_back([&, k] {
        try {
          drive<Policy>(c, k, k == 0 ? tr : nullptr,
                        ep[static_cast<std::size_t>(k)]);
        } catch (...) {
          err[static_cast<std::size_t>(k)] = std::current_exception();
        }
      });
    for (auto& t : threads) t.join();
    for (const auto& e : err)
      if (e) std::rethrow_exception(e);
    r = std::move(ep[0]);
    for (std::size_t k = 1; k < ep.size(); ++k) {
      const auto& p = ep[k];
      r.rank_busy_s.insert(r.rank_busy_s.end(), p.rank_busy_s.begin(),
                           p.rank_busy_s.end());
      r.halo_wait_ms_per_step += p.halo_wait_ms_per_step;
      r.halo_epochs_per_step += p.halo_epochs_per_step;
      r.halo_mb_per_step += p.halo_mb_per_step;
      r.tcp_frames_per_step += p.tcp_frames_per_step;
      r.tcp_bytes_per_step += p.tcp_bytes_per_step;
      r.memory_bytes += p.memory_bytes;
      r.failures.insert(r.failures.end(), p.failures.begin(),
                        p.failures.end());
      if (!p.failures.empty()) r.failed = r.attempted;
    }
  } else {
    drive<Policy>(c, -1, tr, r);
  }
  const double steps = c.w.timed, world = c.world();
  r.halo_wait_ms_per_step /= steps * world;
  r.halo_epochs_per_step /= steps * world;
  r.halo_mb_per_step /= steps;
  r.tcp_frames_per_step /= steps;
  r.tcp_bytes_per_step /= steps;
  return r;
}

}  // namespace

JobResult run_job(const Workload& w, const SeededIc& ic, const JobOptions& o,
                  Tracer* tracer) {
  switch (w.prec) {
    case Prec::kBf16x32: return run_job_t<common::Bf16x32>(w, ic, o, tracer);
    case Prec::kFp16x32: return run_job_t<common::Fp16x32>(w, ic, o, tracer);
    case Prec::kFp64: break;
  }
  return run_job_t<common::Fp64>(w, ic, o, tracer);
}

}  // namespace perfbench
