#pragma once
/// \file runner.hpp
/// Unified execution of registered cases: one options struct drives any
/// case through app::Simulation at any precision, scheme, reconstruction
/// order, and rank layout, and reports diagnostics, conserved-quantity
/// totals, and (for cases with an analytic solution) L1/L∞ error norms.
/// The golden-regression tests, the `run_case` CLI, and `bench_grind
/// --case` all run scenarios through this one seam.

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "app/simulation.hpp"
#include "cases/case.hpp"
#include "common/exec.hpp"
#include "common/hash.hpp"
#include "common/timer.hpp"
#include "sim/fault.hpp"

namespace igr::cases {

/// Runtime precision selector (the CLI's `--precision`).
enum class Precision { kFp64, kFp32, kFp16x32, kBf16x32 };

[[nodiscard]] const char* precision_name(Precision p);
/// Parse "fp64" / "fp32" / "fp16x32"; false on anything else.
bool parse_precision(std::string_view s, Precision* out);

/// How to run a case.  Zero-initialized fields defer to the CaseSpec's
/// defaults.
///
/// This is THE user-facing request layer.  The layering is strictly
/// one-way:
///
///   cases::RunOptions            what the user asked for (this struct)
///     └─ to_params()             documented lowering, never round-tripped
///        └─ app::Simulation::Params   the assembled run description
///             ├─ common::SolverConfig   derived kernel/precision knobs
///             └─ sim::DistOptions       derived decomposed-driver tuning
///
/// Mutate RunOptions and re-lower rather than editing the derived layers;
/// run_case, the golden regressions, and the bench harnesses all build
/// their simulations through this seam.
struct RunOptions {
  int n = 0;           ///< Resolution parameter (0: spec.default_n).
  int steps = 0;       ///< > 0: run exactly this many steps.
  double t_end = -1.0; ///< >= 0 (and steps == 0): run to this time;
                       ///< -1: spec.default_t_end, else golden_steps.
  std::array<int, 3> ranks{1, 1, 1};  ///< Decomposed layout (IGR only).
  app::SchemeKind scheme = app::SchemeKind::kIgr;
  fv::ReconScheme recon = fv::ReconScheme::kFifth;
  /// Jacobi Sigma sweeps (decomposition-exact: rank layout cannot change
  /// the bits) instead of the default red–black Gauss–Seidel.
  bool jacobi_sweeps = false;
  bool phase_timing = false;
  /// Multiplier on the case's CFL number (1 = as registered).  The guarded
  /// runner shrinks this on rollback (cfl_backoff); tests crank it up to
  /// provoke an instability the health guard must catch.
  double cfl_scale = 1.0;
  /// Fault plan injected into the distributed driver's comm and phase
  /// callbacks (disarmed by default; single-domain runs ignore comm/phase
  /// triggers — only io applies, via the guarded runner's write hook).
  sim::FaultPlan faults{};
  /// Halo-wait bound handed to the distributed driver (seconds; <= 0
  /// disables).
  double comm_timeout_s = 60.0;
  /// Transport behind the decomposed driver's Comm.  Default: in-process
  /// (every rank a worker thread here).  kTcp: this process owns exactly
  /// `transport.rank` of `transport.world` and exchanges halos with peer
  /// processes over loopback sockets — global reads become root-only and
  /// rollback is the launcher's job (respawn), not the runner's.
  sim::TransportSpec transport{};
  /// Execution-space backend of the in-rank kernels (see common/exec.hpp):
  /// kOpenMP teams the per-plane/per-row kernel layer over OpenMP (or a
  /// std::thread pool when built without it); kSerial is the bitwise
  /// reference every backend is validated against.
  common::ExecBackend exec = common::ExecBackend::kOpenMP;
  /// Exec-space width per rank (0 = ambient).  Lowered into
  /// SolverConfig::exec_threads, which sets the kernel team width wherever
  /// the kernels run.
  int threads = 0;
  /// Observability sinks (empty: off).  Requesting either one arms
  /// common::telemetry for the process; telemetry is provably inert — state
  /// and dt fingerprints are bitwise-identical on or off (test-enforced).
  std::string telemetry;  ///< Per-step JSONL event stream (IO root writes).
  std::string trace;      ///< Chrome trace_event file, one pid row per rank
                          ///< (TCP ranks gather fragments to the IO root).

  /// One-way lowering of this request (plus the case's registered
  /// defaults) into the app::Simulation parameter block — the only place
  /// RunOptions fields are translated into SolverConfig/DistOptions.
  /// `fault` is wired into the decomposed driver (may be null).
  template <class Policy>
  [[nodiscard]] typename app::Simulation<Policy>::Params to_params(
      const CaseSpec& spec, sim::FaultInjector* fault = nullptr) const;
};

/// What a run produced.
struct RunResult {
  app::FlowDiagnostics diag;
  common::Cons<double> totals_initial{};  ///< Conserved totals at t = 0.
  common::Cons<double> totals_final{};    ///< Conserved totals now.
  double l1_error = -1.0;    ///< Density L1 vs analytic (-1: no `exact`).
  double linf_error = -1.0;  ///< Density L∞ vs analytic (-1: no `exact`).
  double time = 0.0;
  int steps = 0;
  double grind_ns = 0.0;
  std::size_t cells = 0;
  std::size_t memory_bytes = 0;
  /// Canonical FNV-1a fingerprint of the conserved state (see
  /// common::state_fnv1a) — the golden *field* checksum: any bit of any
  /// interior value changing changes this.
  std::uint64_t state_fnv = 0;
  /// FNV-1a over the bit patterns of every per-step dt this CaseRun took,
  /// in step order.  Identical on every process of a multi-process run (dt
  /// is an allreduce), so comparing it across transports proves the *whole
  /// dt trajectory* matched — a sharper bitwise check than the final state
  /// alone.
  std::uint64_t dt_fnv = 0;
  /// Per-phase wall time in ns per cell per step (bench_grind's breakdown
  /// metric), indexed by common::PhaseProfile::Phase.  Populated when
  /// opts.phase_timing was on for the single-domain IGR scheme (see
  /// app::StepMeters::has_phases).
  bool has_phases = false;
  std::array<double, common::PhaseProfile::kNumPhases> phase_ns{};
};

/// A stateful case execution: step/run/inspect, checkpoint and restart.
template <class Policy>
class CaseRun {
 public:
  explicit CaseRun(const CaseSpec& spec, const RunOptions& opts = {});
  ~CaseRun();
  CaseRun(CaseRun&&) noexcept = default;
  CaseRun& operator=(CaseRun&&) noexcept = default;

  /// One CFL step; returns dt.
  double step();
  /// Run to completion per the options; returns result().
  RunResult run();
  /// Diagnostics + totals + error norms at the current state.
  [[nodiscard]] RunResult result() const;

  [[nodiscard]] app::Simulation<Policy>& sim() { return *sim_; }
  [[nodiscard]] const CaseSpec& spec() const { return *spec_; }
  /// Steps taken by *this object* (a restarted run counts from its load).
  [[nodiscard]] int steps_taken() const { return steps_; }
  /// Step budget resolved from the options (0: time-driven to t_end()).
  [[nodiscard]] int target_steps() const { return target_steps_; }
  [[nodiscard]] double t_end() const { return t_end_; }
  /// The fault injector backing opts.faults (null when disarmed).  Owned
  /// here and kept across rebuild() so one-shot faults do not re-fire
  /// during a retry.
  [[nodiscard]] sim::FaultInjector* injector() { return injector_.get(); }
  /// Running FNV-1a over the per-step dt bits (see RunResult::dt_fnv).
  [[nodiscard]] std::uint64_t dt_fnv() const { return dt_hash_.value(); }

  /// Append one event line (`{"event": "<name>", ...extra}`) to the JSONL
  /// stream; no-op when the stream is not open on this process.  `extra` is
  /// the literal body of additional JSON fields (no braces), pre-escaped.
  void emit_event(const std::string& name, const std::string& extra = {});
  /// Collective Chrome-trace export to opts.trace (no-op when unset): every
  /// process serializes its recorded spans; the IO root merges the per-rank
  /// fragments (gathered over Transport::send_blob for TCP teams) and
  /// writes the file.  run() and the guarded runner call this once at
  /// completion.
  void export_trace();

  /// Tear down and reconstruct the simulation from the initial conditions
  /// (same options except `cfl_scale`, which the caller may have backed
  /// off).  Required for rollback after a comm fault: an aborted
  /// communicator is poisoned by design and cannot be reused.
  void rebuild(double cfl_scale);

  /// Checkpoint/restart through the runner (any rank layout; the IGR
  /// scheme round-trips Sigma too, making the continuation bitwise).
  void save_checkpoint(const std::string& path) const;
  void load_checkpoint(const std::string& path);

 private:
  void build_sim();
  void record_step_telemetry(double dt);

  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f) std::fclose(f);
    }
  };

  const CaseSpec* spec_;
  RunOptions opts_;
  int target_steps_ = 0;   ///< 0: time-driven.
  double t_end_ = 0.0;
  std::unique_ptr<sim::FaultInjector> injector_;
  std::unique_ptr<app::Simulation<Policy>> sim_;
  common::Cons<double> totals_initial_{};
  common::Fnv1a64 dt_hash_{};
  int steps_ = 0;

  /// JSONL stream (IO root only; survives rebuild() so a rolled-back run
  /// keeps appending to one file) + the meter snapshot the per-step
  /// telemetry is the difference against.
  std::unique_ptr<std::FILE, FileCloser> jsonl_;
  app::StepMeters prev_meters_{};
};

/// Options for the case's golden run (golden_n cells, golden_steps steps) —
/// what the regression tests and the `--smoke` CLI sweep execute.
[[nodiscard]] RunOptions golden_options(const CaseSpec& spec);

/// One-shot convenience: construct, run, report.  (Runtime precision
/// selection is the caller's dispatch — see the `drive` lambda in
/// examples/run_case.cpp for the idiom.)
template <class Policy>
RunResult run_case(const CaseSpec& spec, const RunOptions& opts = {});

// --- Guarded execution: checkpoints + health + rollback/retry ------------

/// Fault-tolerance envelope around a case run.
struct GuardOptions {
  /// Checkpoint cadence in steps (0: never).  Files land at
  /// `<dir>/<tag>.ckpt<step>` (+ ".sigma") with a `<dir>/<tag>.manifest`
  /// listing restart points oldest-first.
  int checkpoint_every = 0;
  std::string dir = ".";
  std::string tag;  ///< Defaults to the case name.
  /// Resume from the newest *valid* manifest entry (corrupt checkpoints
  /// are CRC-detected and skipped in favor of the previous valid one; an
  /// entry whose path is not `<dir>/<tag>.ckpt<step>` is never loaded or
  /// deleted).
  bool resume = false;
  int keep = 3;  ///< Checkpoints retained on disk (older ones deleted).
  /// Health-scan cadence in steps (0: never scan).
  int health_every = 4;
  bool strict_pressure = false;  ///< Fail nonpositive pressure too.
  /// Rollback budget: on an unhealthy state or a comm/phase fault, reload
  /// the last valid checkpoint (or restart from t=0) with the CFL scaled
  /// by `cfl_backoff`, at most `max_retries` times — then fail cleanly.
  int max_retries = 2;
  double cfl_backoff = 0.5;
};

/// What the guarded run lived through.
struct GuardReport {
  RunResult result{};        ///< Valid when completed.
  bool completed = false;
  std::string failure;       ///< Why it gave up (completed == false).
  int retries = 0;           ///< Rollbacks performed.
  long resumed_step = -1;    ///< Step restored by --resume (-1: fresh).
  int checkpoints_written = 0;
  int checkpoints_rejected = 0;  ///< Invalid or foreign manifest entries
                                 ///< skipped.
  int checkpoint_failures = 0;   ///< Saves that died mid-write (torn temp;
                                 ///< the previous checkpoint survives).
  double final_cfl_scale = 1.0;  ///< After any backoff.
  /// The armed FaultPlan this run executed under ("disarmed" when none) —
  /// recorded so a failure report names the fault that provoked it.
  std::string fault_plan;
  std::uint64_t fault_seed = 0;  ///< Plan provenance (0: explicit keys).
};

/// Run `spec` under the fault-tolerance envelope: periodic crash-safe
/// checkpoints + manifest, optional resume from the latest valid one,
/// periodic health scans, and bounded rollback/retry with CFL backoff on
/// faults or unhealthy states.  Injected comm/phase faults (opts.faults)
/// surface here as a rollback, proving the abort path unwinds rather than
/// deadlocks; injected IO faults tear a temp file and are survived.
template <class Policy>
GuardReport run_case_guarded(const CaseSpec& spec, const RunOptions& opts,
                             const GuardOptions& guard);

extern template class CaseRun<common::Fp64>;
extern template class CaseRun<common::Fp32>;
extern template class CaseRun<common::Fp16x32>;
extern template class CaseRun<common::Bf16x32>;

extern template GuardReport run_case_guarded<common::Fp64>(
    const CaseSpec&, const RunOptions&, const GuardOptions&);
extern template GuardReport run_case_guarded<common::Fp32>(
    const CaseSpec&, const RunOptions&, const GuardOptions&);
extern template GuardReport run_case_guarded<common::Fp16x32>(
    const CaseSpec&, const RunOptions&, const GuardOptions&);
extern template GuardReport run_case_guarded<common::Bf16x32>(
    const CaseSpec&, const RunOptions&, const GuardOptions&);

}  // namespace igr::cases
