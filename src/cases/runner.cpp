#include "cases/runner.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/half.hpp"
#include "common/hash.hpp"
#include "common/telemetry.hpp"
#include "io/checkpoint.hpp"

namespace igr::cases {

namespace telemetry = common::telemetry;

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kFp64: return "fp64";
    case Precision::kFp32: return "fp32";
    case Precision::kFp16x32: return "fp16x32";
    case Precision::kBf16x32: return "bf16x32";
  }
  return "?";
}

bool parse_precision(std::string_view s, Precision* out) {
  if (s == "fp64") *out = Precision::kFp64;
  else if (s == "fp32") *out = Precision::kFp32;
  else if (s == "fp16x32") *out = Precision::kFp16x32;
  else if (s == "bf16x32") *out = Precision::kBf16x32;
  else return false;
  return true;
}

namespace {

/// Conserved totals of the (gathered) interior in double — the golden
/// checksum quantity, scheme- and layout-independent.
template <class S>
common::Cons<double> totals_of(const common::StateField3<S>& q,
                               const mesh::Grid& g) {
  return common::conserved_totals(q, g.dx() * g.dy() * g.dz());
}

}  // namespace

template <class Policy>
CaseRun<Policy>::CaseRun(const CaseSpec& spec, const RunOptions& opts)
    : spec_(&spec), opts_(opts) {
  if (opts_.scheme == app::SchemeKind::kBaselineWeno && !spec.supports_weno)
    throw std::invalid_argument("case '" + spec.name +
                                "' is registered IGR-only (supports_weno is "
                                "off)");
  if (opts_.steps > 0) {
    target_steps_ = opts_.steps;
  } else if (opts_.t_end >= 0.0) {
    t_end_ = opts_.t_end;
  } else if (spec.default_t_end > 0.0) {
    t_end_ = spec.default_t_end;
  } else {
    target_steps_ = spec.golden_steps;
  }
  if (opts_.faults.armed())
    injector_ = std::make_unique<sim::FaultInjector>(opts_.faults);
  // Arm telemetry *before* the first build so construction-time IO (e.g. a
  // resume's checkpoint read) is already observed.  The gate is flipped
  // here, at setup — never on a hot path.
  if (!opts_.telemetry.empty() || !opts_.trace.empty())
    telemetry::set_enabled(true);
  build_sim();
  if (telemetry::enabled()) {
    telemetry::set_rank(std::max(0, sim_->local_rank()));
    if (!opts_.telemetry.empty() && sim_->is_io_root()) {
      jsonl_.reset(std::fopen(opts_.telemetry.c_str(), "w"));
      if (!jsonl_)
        throw std::runtime_error("CaseRun: cannot open telemetry stream " +
                                 opts_.telemetry);
    }
  }
}

template <class Policy>
typename app::Simulation<Policy>::Params RunOptions::to_params(
    const CaseSpec& spec, sim::FaultInjector* fault) const {
  typename app::Simulation<Policy>::Params params;
  params.grid = spec.grid(n > 0 ? n : spec.default_n);
  params.cfg = spec.config();
  params.cfg.phase_timing = phase_timing;
  params.cfg.cfl *= cfl_scale;
  if (jacobi_sweeps) params.cfg.sigma_gauss_seidel = false;
  params.cfg.exec_backend = exec;
  params.cfg.exec_threads = threads;
  params.bc = spec.bc();
  params.scheme = scheme;
  params.recon = recon;
  params.ranks = ranks;
  params.dist.fault = fault;
  params.dist.comm_timeout_s = comm_timeout_s;
  params.dist.halo_wire = halo_wire;
  params.dist.transport = transport;
  return params;
}

template <class Policy>
void CaseRun<Policy>::build_sim() {
  sim_.reset();  // a poisoned comm must die before its successor spawns
  sim_ = std::make_unique<app::Simulation<Policy>>(
      opts_.to_params<Policy>(*spec_, injector_.get()));
  sim_->init(spec_->initial());
  steps_ = 0;
  prev_meters_ = sim_->meters();  // a fresh simulation meters from zero
  if (sim_->is_io_root()) {
    totals_initial_ = totals_of(sim_->state(), sim_->grid());
  } else {
    (void)sim_->dist().gather();  // participate in the root's gather
  }
}

template <class Policy>
void CaseRun<Policy>::rebuild(double cfl_scale) {
  opts_.cfl_scale = cfl_scale;
  build_sim();  // injector_ deliberately survives: counters keep growing
}

template <class Policy>
CaseRun<Policy>::~CaseRun() = default;

template <class Policy>
double CaseRun<Policy>::step() {
  // The rank-kill injector fires *before* the step so the victim dies with
  // its halos unposted — the worst case its peers must detect.  Honored
  // only under a multi-process transport: in-process, SIGKILL would take
  // every rank (and the test harness) down with it.
  if (injector_ && sim_->multi_process())
    injector_->on_step(sim_->local_rank());
  const double dt = sim_->step();
  ++steps_;
  dt_hash_.update(&dt, sizeof(dt));
  // Telemetry runs strictly *after* the FP work and the dt-hash update, and
  // only reads meters — the step's bits are already sealed either way.
  if (telemetry::enabled()) record_step_telemetry(dt);
  return dt;
}

template <class Policy>
void CaseRun<Policy>::record_step_telemetry(double dt) {
  const app::StepMeters now = sim_->meters();
  const app::StepMeters d = now - prev_meters_;
  prev_meters_ = now;
  const std::int64_t t0 = now.last_step_t0_ns;
  char buf[192];
  std::snprintf(buf, sizeof(buf), "\"step\": %d, \"dt\": %.17g", steps_, dt);
  telemetry::record_span("step", t0, d.wall_ns, buf);

  // The profile records durations, not start times, so the trace lays the
  // phase child spans sequentially inside the step span — phase order
  // within the step is schedule order, not measured offsets.
  constexpr int kNp = common::PhaseProfile::kNumPhases;
  if (d.has_phases) {
    std::int64_t cursor = t0;
    for (int p = 0; p < kNp; ++p) {
      const auto ns = static_cast<std::int64_t>(
          d.phase_s[static_cast<std::size_t>(p)] * 1e9);
      if (ns > 0) {
        telemetry::record_span(
            common::PhaseProfile::name(
                static_cast<common::PhaseProfile::Phase>(p)),
            cursor, ns);
        cursor += ns;
      }
    }
  }

  if (!jsonl_) return;
  std::FILE* f = jsonl_.get();
  std::fprintf(f,
               "{\"step\": %d, \"t\": %.17g, \"dt\": %.17g, "
               "\"wall_ns\": %" PRId64,
               steps_, sim_->time(), dt, d.wall_ns);
  if (d.has_phases) {
    std::fputs(", \"phase_ns\": {", f);
    for (int p = 0; p < kNp; ++p) {
      const auto ph = static_cast<common::PhaseProfile::Phase>(p);
      std::fprintf(f, "%s\"%s\": %.0f", p == 0 ? "" : ", ",
                   common::PhaseProfile::name(ph),
                   d.phase_s[static_cast<std::size_t>(p)] * 1e9);
    }
    std::fputc('}', f);
  }
  std::fprintf(f, ", \"sigma_sweeps\": %" PRIu64, d.sigma_sweeps);
  if (sim_->distributed()) {
    std::fprintf(f,
                 ", \"halo_wait_ns\": [%" PRIu64 ", %" PRIu64 ", %" PRIu64
                 "], \"halo_wait_epochs\": [%" PRIu64 ", %" PRIu64
                 ", %" PRIu64 "], \"wire_bytes\": %" PRIu64,
                 d.halo_wait_ns[0], d.halo_wait_ns[1], d.halo_wait_ns[2],
                 d.halo_wait_epochs[0], d.halo_wait_epochs[1],
                 d.halo_wait_epochs[2], d.wire_bytes);
  }
  std::fputs("}\n", f);
  // Line-buffered on purpose: a killed or rolled-back run leaves a
  // parseable stream up to its last completed step.
  std::fflush(f);
}

template <class Policy>
void CaseRun<Policy>::emit_event(const std::string& name,
                                 const std::string& extra) {
  if (!jsonl_) return;
  std::FILE* f = jsonl_.get();
  std::fprintf(f, "{\"event\": \"%s\"", telemetry::json_escape(name).c_str());
  if (!extra.empty()) std::fprintf(f, ", %s", extra.c_str());
  std::fputs("}\n", f);
  std::fflush(f);
}

namespace {
/// Blob tag of the per-rank trace-fragment gather (DistributedIgr owns tags
/// 1 and 2 for state/Sigma).
constexpr int kBlobTagTrace = 3;
}  // namespace

template <class Policy>
void CaseRun<Policy>::export_trace() {
  if (opts_.trace.empty()) return;
  const std::string mine =
      telemetry::chrome_events(std::max(0, sim_->local_rank()));
  if (sim_->multi_process()) {
    auto& transport = sim_->dist().comm().transport();
    if (!sim_->is_io_root()) {
      transport.send_blob(0, kBlobTagTrace,
                          reinterpret_cast<const unsigned char*>(mine.data()),
                          mine.size());
      return;
    }
    std::vector<std::string> frags;
    frags.push_back(mine);
    const int R = sim_->dist().comm().ranks();
    for (int r = 1; r < R; ++r) {
      const auto blob = transport.recv_blob(r, kBlobTagTrace);
      frags.emplace_back(reinterpret_cast<const char*>(blob.data()),
                         blob.size());
    }
    if (!telemetry::write_trace(opts_.trace, frags))
      throw std::runtime_error("CaseRun: cannot write trace " + opts_.trace);
    return;
  }
  if (!telemetry::write_trace(opts_.trace, {mine}))
    throw std::runtime_error("CaseRun: cannot write trace " + opts_.trace);
}

template <class Policy>
RunResult CaseRun<Policy>::run() {
  if (target_steps_ > 0) {
    while (steps_ < target_steps_) step();
  } else {
    while (sim_->time() < t_end_ - 1e-14) step();
  }
  const RunResult r = result();
  export_trace();  // collective; after result()'s gather on every process
  return r;
}

template <class Policy>
RunResult CaseRun<Policy>::result() const {
  RunResult r;
  // Per-phase breakdown normalized the way bench_grind reports it (ns per
  // cell per step).
  const app::StepMeters m = sim_->meters();
  const std::size_t cells = sim_->grid().cells();
  r.grind_ns = m.grind_ns(cells);
  if (m.has_phases && m.steps > 0) {
    r.has_phases = true;
    const double denom =
        static_cast<double>(cells) * static_cast<double>(m.steps);
    for (std::size_t p = 0; p < r.phase_ns.size(); ++p)
      r.phase_ns[p] = m.phase_s[p] * 1e9 / denom;
  }
  if (sim_->multi_process() && !sim_->is_io_root()) {
    // The root's diagnostics start with a gather; every process must feed
    // it.  Everything global in the result is root-only — this side
    // carries the collectively-known scalars and the dt fingerprint.
    (void)sim_->dist().gather();
    r.time = sim_->time();
    r.steps = steps_;
    r.cells = cells;
    r.memory_bytes = sim_->memory_bytes();
    r.dt_fnv = dt_hash_.value();
    return r;
  }
  if (sim_->multi_process()) {
    // Exactly one gather per result() call on every process, regardless of
    // the root's cache state — dist() invalidates it so the diagnostics
    // below re-gather in lockstep with the peers' calls above.
    (void)sim_->dist();
  }
  r.diag = sim_->diagnostics();
  r.totals_initial = totals_initial_;
  r.totals_final = totals_of(sim_->state(), sim_->grid());
  r.time = sim_->time();
  r.steps = steps_;
  r.cells = cells;
  r.memory_bytes = sim_->memory_bytes();
  r.state_fnv = common::state_fnv1a(sim_->state());
  r.dt_fnv = dt_hash_.value();
  if (spec_->exact) {
    const auto& q = sim_->state();
    const auto& g = sim_->grid();
    const double t = sim_->time();
    double l1 = 0.0, linf = 0.0;
    for (int k = 0; k < g.nz(); ++k) {
      for (int j = 0; j < g.ny(); ++j) {
        for (int i = 0; i < g.nx(); ++i) {
          const double exact = spec_->exact(g.x(i), g.y(j), g.z(k), t).rho;
          const double err = std::abs(
              static_cast<double>(q[common::kRho](i, j, k)) - exact);
          l1 += err;
          linf = std::max(linf, err);
        }
      }
    }
    r.l1_error = l1 / static_cast<double>(g.cells());
    r.linf_error = linf;
  }
  return r;
}

template <class Policy>
void CaseRun<Policy>::save_checkpoint(const std::string& path) const {
  sim_->save_checkpoint(path);
}

template <class Policy>
void CaseRun<Policy>::load_checkpoint(const std::string& path) {
  sim_->load_checkpoint(path);
  steps_ = 0;  // step budget counts from the restart point
}

RunOptions golden_options(const CaseSpec& spec) {
  RunOptions o;
  o.n = spec.golden_n;
  o.steps = spec.golden_steps;
  return o;
}

template <class Policy>
RunResult run_case(const CaseSpec& spec, const RunOptions& opts) {
  CaseRun<Policy> run(spec, opts);
  return run.run();
}

namespace {

/// Uninstalls the global torn-write hook on every exit path of the guarded
/// runner (the hook references the run's injector, which dies with it).
struct IoHookGuard {
  ~IoHookGuard() { io::set_checkpoint_write_fault({}); }
};

}  // namespace

template <class Policy>
GuardReport run_case_guarded(const CaseSpec& spec, const RunOptions& opts,
                             const GuardOptions& guard) {
  GuardReport rep;
  double cfl_scale = opts.cfl_scale;
  rep.final_cfl_scale = cfl_scale;
  rep.fault_plan = opts.faults.describe();
  rep.fault_seed = opts.faults.seed;

  CaseRun<Policy> run(spec, opts);
  const bool mp = run.sim().multi_process();
  const bool io_root = run.sim().is_io_root();
  sim::FaultInjector* inj = run.injector();
  IoHookGuard hook_guard;
  if (inj && inj->plan().io_write_at > 0) {
    io::set_checkpoint_write_fault(
        [inj](const std::string&, std::size_t) { inj->on_io_write(); });
  }

  const std::string tag = guard.tag.empty() ? spec.name : guard.tag;
  const std::string base = guard.dir + "/" + tag;
  const std::string manifest_path = base + ".manifest";
  const bool has_sigma = opts.scheme == app::SchemeKind::kIgr;

  long step = 0;  ///< Absolute campaign step (survives rollback/resume).
  std::vector<io::ManifestEntry> manifest;
  /// The file this run writes for the checkpoint at `at`.  Rotation
  /// deletes manifest paths, so a resumed manifest entry naming anything
  /// else is never trusted.
  const auto ckpt_path = [&base](long at) {
    return base + ".ckpt" + std::to_string(at);
  };

  // Restore the newest manifest entry whose files pass a full CRC scan;
  // invalid or mismatched ones are skipped in favor of older entries.
  const auto try_restore = [&]() -> bool {
    for (auto it = manifest.rbegin(); it != manifest.rend(); ++it) {
      const auto v = io::validate_checkpoint(it->path);
      const auto vs = has_sigma
                          ? io::validate_checkpoint(it->path + ".sigma")
                          : io::CheckpointValidation{true, {}, {}};
      if (!v.ok || !vs.ok) {
        ++rep.checkpoints_rejected;
        continue;
      }
      try {
        run.load_checkpoint(it->path);
      } catch (const std::exception&) {
        ++rep.checkpoints_rejected;  // e.g. state/.sigma from different saves
        continue;
      }
      step = it->step;
      return true;
    }
    return false;
  };

  if (guard.resume) {
    for (auto& e : io::read_manifest(manifest_path)) {
      if (e.path == ckpt_path(e.step)) {
        manifest.push_back(std::move(e));
      } else {
        ++rep.checkpoints_rejected;
      }
    }
    if (try_restore()) {
      rep.resumed_step = step;
      telemetry::record_instant("resume",
                                "\"step\": " + std::to_string(step));
      run.emit_event("resume", "\"step\": " + std::to_string(step));
    }
  }

  // Rollback: rebuild the simulation (a faulted comm is poisoned by design
  // and cannot be reused), back off the CFL, and restore the last valid
  // checkpoint — or restart from the initial conditions if there is none.
  const auto rollback = [&](const std::string& why) -> bool {
    telemetry::record_instant(
        "rollback", "\"why\": \"" + telemetry::json_escape(why) + "\"");
    run.emit_event("rollback", "\"step\": " + std::to_string(step) +
                                   ", \"why\": \"" +
                                   telemetry::json_escape(why) + "\"");
    if (mp) {
      // A multi-process fabric cannot be re-formed in place: the peers'
      // transports are poisoned too (abort broadcast) and this process
      // cannot restart theirs.  Fail fast with the root cause latched;
      // igr_launch reaps the team, respawns it with --resume, and the
      // fresh team restores the newest valid checkpoint.
      rep.failure = why + " — multi-process run: exiting for the launcher "
                    "to respawn the team (resumes from the newest valid "
                    "checkpoint)";
      return false;
    }
    if (rep.retries >= guard.max_retries) {
      rep.failure = why + " — retry budget (" +
                    std::to_string(guard.max_retries) + ") exhausted";
      return false;
    }
    ++rep.retries;
    cfl_scale *= guard.cfl_backoff;
    rep.final_cfl_scale = cfl_scale;
    run.rebuild(cfl_scale);
    step = 0;
    try_restore();  // stays at the initial conditions when nothing is valid
    return true;
  };

  const int target_steps = run.target_steps();
  const double t_end = run.t_end();
  const auto done = [&]() {
    return target_steps > 0 ? step >= target_steps
                            : run.sim().time() >= t_end - 1e-14;
  };

  while (!done()) {
    try {
      run.step();
      ++step;
    } catch (const std::exception& e) {
      if (!rollback(std::string("step ") + std::to_string(step + 1) +
                    " failed: " + e.what()))
        return rep;
      continue;
    }

    const bool ckpt_due =
        guard.checkpoint_every > 0 && step % guard.checkpoint_every == 0;
    const bool health_due =
        guard.health_every > 0 &&
        (step % guard.health_every == 0 || ckpt_due);
    if (health_due) {
      const auto h = run.sim().health();
      if (!h.healthy(guard.strict_pressure)) {
        run.emit_event("health",
                       "\"step\": " + std::to_string(step) + ", \"ok\": false"
                       ", \"detail\": \"" +
                           telemetry::json_escape(h.describe()) + "\"");
        if (!rollback("unhealthy state at step " + std::to_string(step) +
                      ": " + h.describe()))
          return rep;
        continue;  // never checkpoint a state the scan just condemned
      }
      run.emit_event("health",
                     "\"step\": " + std::to_string(step) + ", \"ok\": true");
    }
    if (ckpt_due) {
      const std::string path = ckpt_path(step);
      try {
        run.save_checkpoint(path);  // collective under mp; throws everywhere
        manifest.push_back({step, run.sim().time(), path});
        while (static_cast<int>(manifest.size()) > std::max(1, guard.keep)) {
          if (io_root) {
            std::remove(manifest.front().path.c_str());
            if (has_sigma)
              std::remove((manifest.front().path + ".sigma").c_str());
          }
          manifest.erase(manifest.begin());
        }
        if (io_root) io::write_manifest(manifest_path, manifest);
        ++rep.checkpoints_written;
        telemetry::record_instant("checkpoint",
                                  "\"step\": " + std::to_string(step));
        run.emit_event("checkpoint", "\"step\": " + std::to_string(step) +
                                         ", \"path\": \"" +
                                         telemetry::json_escape(path) + "\"");
      } catch (const std::exception& e) {
        // A save that dies mid-write leaves a torn `.tmp` and never touches
        // the final path or the manifest — the run itself is unharmed, so
        // count it and keep stepping (the next cadence retries).
        ++rep.checkpoint_failures;
        run.emit_event("checkpoint_failed",
                       "\"step\": " + std::to_string(step) + ", \"why\": \"" +
                           telemetry::json_escape(e.what()) + "\"");
      }
    }
  }

  rep.completed = true;
  rep.result = run.result();
  run.export_trace();  // collective; after result()'s gather
  // The absolute campaign step is what the report should carry, not the
  // rebuilt CaseRun's local count.
  rep.result.steps = static_cast<int>(step);
  return rep;
}

template typename app::Simulation<common::Fp64>::Params
RunOptions::to_params<common::Fp64>(const CaseSpec&,
                                    sim::FaultInjector*) const;
template typename app::Simulation<common::Fp32>::Params
RunOptions::to_params<common::Fp32>(const CaseSpec&,
                                    sim::FaultInjector*) const;
template typename app::Simulation<common::Fp16x32>::Params
RunOptions::to_params<common::Fp16x32>(const CaseSpec&,
                                       sim::FaultInjector*) const;
template typename app::Simulation<common::Bf16x32>::Params
RunOptions::to_params<common::Bf16x32>(const CaseSpec&,
                                       sim::FaultInjector*) const;

template class CaseRun<common::Fp64>;
template class CaseRun<common::Fp32>;
template class CaseRun<common::Fp16x32>;
template class CaseRun<common::Bf16x32>;

template RunResult run_case<common::Fp64>(const CaseSpec&, const RunOptions&);
template RunResult run_case<common::Fp32>(const CaseSpec&, const RunOptions&);
template RunResult run_case<common::Fp16x32>(const CaseSpec&,
                                             const RunOptions&);
template RunResult run_case<common::Bf16x32>(const CaseSpec&,
                                             const RunOptions&);

template GuardReport run_case_guarded<common::Fp64>(
    const CaseSpec&, const RunOptions&, const GuardOptions&);
template GuardReport run_case_guarded<common::Fp32>(
    const CaseSpec&, const RunOptions&, const GuardOptions&);
template GuardReport run_case_guarded<common::Fp16x32>(
    const CaseSpec&, const RunOptions&, const GuardOptions&);
template GuardReport run_case_guarded<common::Bf16x32>(
    const CaseSpec&, const RunOptions&, const GuardOptions&);

}  // namespace igr::cases
