#pragma once
/// \file bench.hpp
/// Shared declarations of the repository benchmark (perfbench): span
/// tracing, sample statistics, workload definitions, the seeded jet initial
/// condition, the job runner, and the per-layer probes.  The benchmark only
/// calls public library entry points; every span is recorded here, around
/// those calls.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/igr_solver3d.hpp"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

// ---------------------------------------------------------------- tracing ---

/// In-memory span recorder for one thread.  Spans nest by construction
/// (Scope is RAII), so a span's self time is its duration minus the sum of
/// its direct children.  Written out once, at the end of the run.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double t0 = 0.0;
    double t1 = 0.0;
  };
  struct SelfTime {
    double total_s = 0.0;  ///< Summed self time over every span of a name.
    int count = 0;
  };

  int begin(const char* name);
  void end(int id);
  [[nodiscard]] std::map<std::string, SelfTime> self_times() const;
  /// Chrome trace_event array (one "X" event per span; parent ids in args).
  void write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Records one span when `t` is non-null; a no-op otherwise.
class Scope {
 public:
  Scope(Tracer* t, const char* name) : t_(t), id_(t ? t->begin(name) : -1) {}
  ~Scope() {
    if (t_) t_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

// ------------------------------------------------------------- statistics ---

double median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

// -------------------------------------------------------------- workloads ---

enum class Prec { kFp64, kBf16x32, kFp16x32 };
const char* prec_name(Prec p);
/// Bytes per stored value.
int storage_bytes(Prec p);

struct Workload {
  std::string name;
  std::string case_name;  ///< Registered case (cases::find).
  Prec prec = Prec::kFp64;
  int n = 32;
  std::array<int, 3> ranks{1, 1, 1};
  bool jacobi = false;  ///< Jacobi Sigma sweeps instead of red-black.
  bool tcp = false;     ///< Ranks exchange over the TCP transport.
  int threads = 1;      ///< Exec-space width per rank.
  int warmup = 1;       ///< Untimed steps before the window.
  int timed = 10;       ///< Steps in the timed window.
  /// Checkpoint cadence inside the window (0: no IO in the workload).
  int ckpt_every = 0;
  /// Steps run after the last checkpoint, once uninterrupted and once
  /// after reloading it (the restart-continuation check).
  int continue_steps = 4;

  [[nodiscard]] int world() const { return ranks[0] * ranks[1] * ranks[2]; }
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Seeded multi-mode perturbation of the jet's ambient state, with the same
/// 0.5% amplitude as app::JetConfig::initial_condition.
struct SeededIc {
  struct Mode {
    int kx = 1, ky = 1, kz = 1;
    double phx = 0.0, phy = 0.0, phz = 0.0;
    double amp = 0.0;  ///< Amplitudes sum to 1, so |perturbation| <= 1.
  };
  std::uint64_t seed = 0;
  std::vector<Mode> modes;
  double noise = 0.005;

  [[nodiscard]] igr::core::PrimFn prim(const std::string& case_name) const;
  [[nodiscard]] std::string json() const;
};
SeededIc make_ic(std::uint64_t seed);

// ------------------------------------------------------------------- jobs ---

struct JobOptions {
  bool traced = false;      ///< Phase profile on + spans recorded.
  /// Override the workload's rank layout with a single domain (the 1-rank
  /// baseline of the strong-scaling efficiency).
  bool single_rank = false;
  std::string scratch;      ///< Directory for rendezvous and checkpoints.
};

/// One job: set up from the seeded IC, warm up, step the timed window, then
/// check the result.  Every metric a job can produce is here; fields a job
/// does not exercise stay zero.
struct JobResult {
  double setup_s = 0.0, construct_s = 0.0, init_s = 0.0, job_s = 0.0;
  double grind_ns = 0.0;  ///< Wall ns per global cell per step, window only.
  std::vector<double> step_ms;
  int attempted = 0, failed = 0;
  std::vector<std::string> failures;
  std::uint64_t state_fnv = 0, dt_fnv = 0;
  double mass0 = 0.0, energy0 = 0.0;  ///< Totals of the seeded IC.
  double mass = 0.0, energy = 0.0, max_rho = 0.0;
  std::size_t cells = 0, local_cells = 0, memory_bytes = 0;

  // Traced-job meters (window deltas).
  std::array<double, 5> phase_ns{};  ///< Per local cell per step.
  double local_step_ns = 0.0;        ///< Window wall per local cell per step.
  double sweeps_per_step = 0.0;      ///< Per rank.
  std::vector<double> rank_busy_s;
  double halo_wait_ms_per_step = 0.0;  ///< Mean per rank.
  double halo_mb_per_step = 0.0;       ///< All ranks.
  double halo_epochs_per_step = 0.0;   ///< Per rank.
  double tcp_frames_per_step = 0.0;    ///< All endpoints, heartbeats excluded.
  double tcp_bytes_per_step = 0.0;
  double health_ms = 0.0, gather_ms = 0.0;

  // Checkpoint IO (workloads with a checkpoint cadence).
  std::vector<double> ckpt_write_ms;
  double ckpt_read_ms = 0.0, validate_ms = 0.0, restart_s = 0.0;
  double ckpt_bytes = 0.0;
};

JobResult run_job(const Workload& w, const SeededIc& ic, const JobOptions& o,
                  Tracer* tracer);

// ----------------------------------------------------------------- probes ---

/// Last-level cache size in bytes (0 when the host does not report it).
std::size_t l3_bytes();
/// Peak resident set of this process in MiB (getrusage ru_maxrss, VmHWM).
double peak_rss_mb();

struct ProbeResults {
  double triad_gbps = 0.0, triad_gbps_t1 = 0.0;
  double bf16_widen_gbps = 0.0, bf16_narrow_gbps = 0.0;
  double f16_widen_gbps = 0.0, f16_narrow_gbps = 0.0;
  double team_barrier_us = 0.0;
  double slab_rtt_us_inproc = 0.0, slab_gbps_inproc = 0.0;
  double slab_rtt_us_tcp = 0.0, slab_gbps_tcp = 0.0;
  double dt_allreduce_us = 0.0;
};

/// Run every layer probe once, recording one span per probe.
ProbeResults run_probes(Tracer* tracer, const std::string& scratch);

/// A fresh, unique directory under `parent` (created); the caller removes it.
std::string unique_dir(const std::string& parent, const std::string& tag);

/// Removes a directory tree (if `path` is non-empty) when it goes out of
/// scope, on every exit path.
class DirGuard {
 public:
  explicit DirGuard(std::string path) : path_(std::move(path)) {}
  ~DirGuard();
  DirGuard(const DirGuard&) = delete;
  DirGuard& operator=(const DirGuard&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace perfbench
