/// \file main.cpp
/// perfbench: the repository benchmark.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///   perfbench --self-test
///
/// Untraced (--trace 0): repeats closed-loop jobs of one workload until S
/// seconds have passed and reports the end-to-end metrics.  Traced
/// (--trace 1): untraced reference jobs around one traced job (phase
/// profile on, spans around every layer call), the rank-layer jobs of a
/// decomposed grid (in-process, 1-rank, TCP + checkpoint), and the layer
/// probes; reports the per-layer
/// metrics, span self times and the tracing overhead.  The last stdout line
/// is one JSON object {"correct", "attempted", "failed", "metrics"}; the full
/// record, with provenance, goes to <out-dir>/<workload>-seed<N>-trace<T>.json.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown", dirty = "unknown", src_hash = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--commit C] "
               "[--dirty 0|1] [--src-hash H]\n       perfbench --self-test\n"
               "workloads:",
               why.c_str());
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--out-dir") a.out_dir = v;
      else if (k == "--commit") a.commit = v;
      else if (k == "--dirty") a.dirty = v;
      else if (k == "--src-hash") a.src_hash = v;
      else usage("unknown option " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (!a.self_test && find_workload(a.workload) == nullptr)
    usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds out of range");
  return a;
}

// ------------------------------------------------------------ JSON output ---

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
      continue;
    }
    o += c;
  }
  return o + "\"";
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string list_json(const std::vector<double>& v) {
  std::string o = "[";
  for (std::size_t i = 0; i < v.size(); ++i) o += (i ? ", " : "") + num(v[i]);
  return o + "]";
}

struct Metric {
  std::string name, unit;
  double value;
};

std::string metrics_json(const std::vector<Metric>& m) {
  std::string o = "{";
  for (std::size_t i = 0; i < m.size(); ++i)
    o += (i ? ", " : "") + str(m[i].name) + ": {\"value\": " +
         num(m[i].value) + ", \"unit\": " + str(m[i].unit) + "}";
  return o + "}";
}

void print_table(const std::vector<Metric>& m) {
  for (const auto& x : m)
    std::printf("  %-34s %14.6g %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
}

std::string provenance_json(const Args& a, const Workload& w,
                            const JobResult& r) {
  const std::size_t l3 = l3_bytes();
  std::ostringstream os;
  os << "{\"commit\": " << str(a.commit) << ", \"dirty\": " << str(a.dirty)
     << ", \"src_sha256\": " << str(a.src_hash)
     << ", \"compiler\": " << str(PB_COMPILER)
     << ", \"build_type\": " << str(PB_BUILD_TYPE)
     << ", \"lib_flags\": " << str(PB_LIB_FLAGS)
     << ", \"half_backend\": " << str(PB_HALF_BACKEND)
     << ", \"openmp\": " << str(PB_OPENMP)
     << ", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"l3_bytes\": " << l3 << ", \"exec_backend\": "
     << str(std::string(PB_OPENMP) == "on" ? "openmp" : "std::thread")
     << ", \"exec_width\": " << w.threads << ", \"ranks\": [" << w.ranks[0]
     << ", " << w.ranks[1] << ", " << w.ranks[2] << "], \"transport\": "
     << str(w.tcp ? "tcp" : "inproc") << ", \"precision\": "
     << str(prec_name(w.prec)) << ", \"n\": " << w.n
     << ", \"cells\": " << r.cells << ", \"seed\": " << a.seed
     << ", \"state_bytes\": " << r.memory_bytes << ", \"state_over_l3\": "
     << num(l3 ? static_cast<double>(r.memory_bytes) / l3 : 0.0) << "}";
  return os.str();
}

/// Same seed, same inputs, same code: every job of a run must reproduce the
/// first job's fingerprints.  Returns the failure text, empty when they agree.
std::string fingerprint_check(const std::vector<JobResult>& jobs) {
  for (std::size_t i = 1; i < jobs.size(); ++i)
    if (jobs[i].state_fnv != jobs[0].state_fnv ||
        jobs[i].dt_fnv != jobs[0].dt_fnv)
      return "job " + std::to_string(i) + " fingerprints " +
             hex(jobs[i].state_fnv) + "/" + hex(jobs[i].dt_fnv) +
             " differ from job 0's " + hex(jobs[0].state_fnv) + "/" +
             hex(jobs[0].dt_fnv);
  return {};
}

// ------------------------------------------------------- computed bytes ---

const char* const kPhase[5] = {"bc", "sigma_source", "sigma_sweeps", "flux",
                               "rk_dt"};

/// Stored values each phase reads plus writes per local cell per step, in
/// the model the README documents (three RK stages; sweeps at the measured
/// count).  Multiplied by the storage width, it gives computed bytes.
std::array<double, 5> phase_values(int n, const std::array<int, 3>& ranks,
                                   double sweeps_per_step) {
  const double nx = static_cast<double>(n) / ranks[0];
  const double ny = static_cast<double>(n) / ranks[1];
  const double nz = static_cast<double>(n + n / 2) / ranks[2];
  const double ng = 3.0;
  const double ghost_per_cell =
      2.0 * ng * (nx * ny + ny * nz + nx * nz) / (nx * ny * nz);
  constexpr double kStages = 3.0;
  return {kStages * 2.0 * 5.0 * ghost_per_cell,  // bc: 5 fields, read+write
          kStages * (4.0 + 2.0),   // source: rho, momenta -> 1/rho, source
          sweeps_per_step * 4.0,   // sweep: Sigma, source, 1/rho -> Sigma
          kStages * (6.0 + 5.0),   // flux: state + Sigma -> rhs
          kStages * (15.0 + 5.0)};  // rk+dt: q, register, rhs -> q
}

// ------------------------------------------------------------ the runs ---

int run_untraced(const Args& a, const Workload& w, const SeededIc& ic,
                 JobOptions o) {
  std::vector<JobResult> jobs;
  double first_peak_mb = 0.0;
  const double t0 = now_s();
  // At least three jobs, so set-up time is a median, not one sample.
  while (jobs.size() < 3 || now_s() - t0 < a.seconds) {
    jobs.push_back(run_job(w, ic, o, nullptr));
    // What a user's single job peaks at; later jobs only add allocator
    // retention, which varies with thread timing.
    if (jobs.size() == 1) first_peak_mb = peak_rss_mb();
  }

  std::vector<double> setup, job, steps;
  long attempted = 0, failed = 0;
  std::vector<std::string> failures;
  for (const auto& r : jobs) {
    setup.push_back(r.setup_s);
    job.push_back(r.job_s);
    steps.insert(steps.end(), r.step_ms.begin(), r.step_ms.end());
    attempted += r.attempted;
    failed += r.failed;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
  }
  const std::string fp = fingerprint_check(jobs);
  if (!fp.empty()) {
    failures.push_back(fp);
    failed = attempted;
  }
  // Interference from other tenants only ever adds time, and on a shared
  // host it comes and goes for seconds at a time: the fastest step is the
  // statistic that repeats from run to run (README).
  const std::vector<Metric> m = {
      {"grind_ns", "ns",
       *std::min_element(steps.begin(), steps.end()) * 1e6 /
           static_cast<double>(jobs[0].cells)},
      {"setup_s", "s", median(setup)},
      {"peak_rss_mb", "MiB", first_peak_mb},
  };
  // Reported and recorded but not gated: job time and the step percentiles
  // drift with the interference level by more than any usable bound, and
  // failed_frac is the result's failed/attempted.
  std::vector<Metric> extra = {
      {"job_s", "s", *std::min_element(job.begin(), job.end())},
      {"step_ms_p50", "ms", percentile(steps, 50.0)}};
  // A percentile needs ten samples beyond it to be reported.
  if (steps.size() >= 100)
    extra.push_back({"step_ms_p90", "ms", percentile(steps, 90.0)});
  extra.push_back(
      {"failed_frac", "ratio",
       static_cast<double>(failed) / static_cast<double>(attempted)});

  std::printf("perfbench %s seed=%llu trace=0: %zu jobs, %zu timed steps\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              jobs.size(), steps.size());
  print_table(m);
  std::printf("  not gated:\n");
  print_table(extra);
  if (steps.size() < 100)
    std::printf("  %-34s %14s\n", "step_ms_p90", "n/a (< 100 steps)");
  std::printf("  state_fnv %s  dt_fnv %s\n", hex(jobs[0].state_fnv).c_str(),
              hex(jobs[0].dt_fnv).c_str());
  for (const auto& f : failures) std::printf("  FAILED: %s\n", f.c_str());

  std::ostringstream rec;
  rec << "{\"workload\": " << str(w.name) << ", \"trace\": 0"
      << ", \"provenance\": " << provenance_json(a, w, jobs[0])
      << ", \"input\": " << ic.json() << ", \"metrics\": " << metrics_json(m)
      << ", \"not_gated\": " << metrics_json(extra)
      << ", \"state_fnv\": " << str(hex(jobs[0].state_fnv))
      << ", \"dt_fnv\": " << str(hex(jobs[0].dt_fnv)) << ", \"jobs\": [";
  for (std::size_t i = 0; i < jobs.size(); ++i)
    rec << (i ? ", " : "") << "{\"grind_ns\": " << num(jobs[i].grind_ns)
        << ", \"setup_s\": " << num(jobs[i].setup_s)
        << ", \"job_s\": " << num(jobs[i].job_s)
        << ", \"step_ms\": " << list_json(jobs[i].step_ms) << "}";
  rec << "], \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i)
    rec << (i ? ", " : "") << str(failures[i]);
  rec << "]}\n";
  const std::string path = a.out_dir + "/" + w.name + "-seed" +
                           std::to_string(a.seed) + "-trace0.json";
  std::ofstream(path) << rec.str();

  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              metrics_json(m).c_str());
  return failed == 0 ? 0 : 1;
}

int run_traced(const Args& a, const Workload& w, const SeededIc& ic,
               JobOptions o) {
  Tracer tr;
  // Untraced reference jobs on both sides of the traced one, so drift over
  // the run does not read as tracing overhead.
  const JobResult ref = run_job(w, ic, o, nullptr);
  JobOptions ot = o;
  ot.traced = true;
  const JobResult r = [&] {
    Scope s(&tr, "job");
    return run_job(w, ic, ot, &tr);
  }();
  const JobResult ref2 = run_job(w, ic, o, nullptr);
  const double ref_grind = std::min(ref.grind_ns, ref2.grind_ns);
  // The rank layer is measured on a decomposed grid in every traced run: the
  // workload's own when it has ranks, else the jet-fp64-4rank grid.  Three
  // jobs of that grid: in-process ranks; one rank, the strong-scaling
  // baseline (and, on a multi-rank workload, the source of every core.*
  // metric, since decomposed solvers keep no phase profile); and TCP.
  const bool multi = w.world() > 1;
  const Workload& rw = multi ? w : *find_workload("jet-fp64-4rank");
  JobResult dec_own;
  if (!multi) {
    Scope s(&tr, "job.ranks");
    dec_own = run_job(rw, ic, o, &tr);
  }
  const JobResult& dec = multi ? r : dec_own;
  JobResult one;
  {
    JobOptions o1 = ot;
    o1.single_rank = true;
    Scope s(&tr, "job.one_rank");
    one = run_job(rw, ic, o1, &tr);
  }
  const double strong_eff =
      one.grind_ns / (rw.world() * (multi ? ref_grind : dec.grind_ns));
  // The same grid over the TCP transport, one endpoint thread per rank, with
  // checkpoint writes on a cadence and a reload that must continue bitwise:
  // the transport's wire counters, per-endpoint busy time and the io layer.
  // TCP is bitwise-equal to the in-process transport, so its fingerprints
  // must match the in-process job's.
  JobResult tcp;
  {
    Workload wt = rw;
    wt.tcp = true;
    wt.ckpt_every = 5;
    wt.continue_steps = 2;
    Scope s(&tr, "job.tcp_ckpt");
    tcp = run_job(wt, ic, o, &tr);
  }
  const JobResult& core = multi ? one : r;
  const std::array<int, 3> core_ranks =
      multi ? std::array<int, 3>{1, 1, 1} : w.ranks;
  const ProbeResults p = run_probes(&tr, o.scratch);

  long attempted = 0, failed = 0;
  std::vector<std::string> failures;
  std::vector<const JobResult*> all = {&ref, &r, &ref2, &one, &tcp};
  if (!multi) all.push_back(&dec_own);
  for (const JobResult* j : all) {
    attempted += j->attempted;
    failed += j->failed;
    failures.insert(failures.end(), j->failures.begin(), j->failures.end());
  }
  const std::string fp_trace = fingerprint_check({ref, r, ref2});
  const std::string fp_tcp = fingerprint_check({dec, tcp});
  if (!fp_trace.empty())
    failures.push_back("traced job differs from untraced: " + fp_trace);
  if (!fp_tcp.empty())
    failures.push_back("tcp job differs from in-process: " + fp_tcp);
  if (!fp_trace.empty() || !fp_tcp.empty()) failed = attempted;

  const double b = storage_bytes(w.prec);
  const auto vals = phase_values(w.n, core_ranks, core.sweeps_per_step);
  std::vector<Metric> m;
  double phase_sum = 0.0, values_sum = 0.0;
  for (std::size_t ph = 0; ph < 5; ++ph) {
    m.push_back({std::string("core.") + kPhase[ph] + "_ns", "ns",
                 core.phase_ns[ph]});
    phase_sum += core.phase_ns[ph];
    values_sum += vals[ph];
  }
  m.push_back({"core.untimed_ns", "ns", core.local_step_ns - phase_sum});
  m.push_back({"core.sigma_sweeps_per_step", "count", core.sweeps_per_step});
  m.push_back({"core.bytes_per_cell", "B",
               static_cast<double>(core.memory_bytes) / core.cells});
  for (std::size_t ph = 0; ph < 5; ++ph)
    m.push_back({std::string("core.") + kPhase[ph] + "_gbps_computed",
                 "GB/s",
                 core.phase_ns[ph] > 0.0 ? vals[ph] * b / core.phase_ns[ph]
                                         : 0.0});
  const double step_gbps = values_sum * b / core.grind_ns;
  m.push_back({"core.roofline_frac", "ratio", step_gbps / p.triad_gbps});

  m.push_back({"common.triad_gbps", "GB/s", p.triad_gbps});
  m.push_back({"common.triad_gbps_t1", "GB/s", p.triad_gbps_t1});
  m.push_back({"common.bf16_widen_gbps", "GB/s", p.bf16_widen_gbps});
  m.push_back({"common.bf16_narrow_gbps", "GB/s", p.bf16_narrow_gbps});
  m.push_back({"common.f16_widen_gbps", "GB/s", p.f16_widen_gbps});
  m.push_back({"common.f16_narrow_gbps", "GB/s", p.f16_narrow_gbps});
  m.push_back({"common.team_barrier_us", "us", p.team_barrier_us});

  double step_ms_sum = 0.0;
  for (const double x : dec.step_ms) step_ms_sum += x;
  const double step_ms_mean =
      dec.step_ms.empty() ? 0.0
                          : step_ms_sum / static_cast<double>(dec.step_ms.size());
  // Per-endpoint busy time (window minus own halo wait) is only known over
  // TCP: in-process decomposed solvers keep no phase profile.
  double busy_max = 0.0, busy_sum = 0.0;
  for (const double x : tcp.rank_busy_s) {
    busy_max = std::max(busy_max, x);
    busy_sum += x;
  }
  const double busy_mean =
      tcp.rank_busy_s.empty() ? 0.0 : busy_sum / tcp.rank_busy_s.size();
  m.push_back({"sim.halo_wait_ms_per_step", "ms", dec.halo_wait_ms_per_step});
  m.push_back({"sim.wait_frac", "ratio",
               step_ms_mean > 0.0 ? dec.halo_wait_ms_per_step / step_ms_mean
                                  : 0.0});
  m.push_back({"sim.halo_mb_per_step", "MB", dec.halo_mb_per_step});
  m.push_back({"sim.halo_epochs_per_step", "count",
               dec.halo_epochs_per_step});
  m.push_back({"sim.rank_imbalance", "ratio",
               busy_mean > 0.0 ? busy_max / busy_mean : 0.0});
  m.push_back({"sim.strong_eff", "ratio", strong_eff});
  m.push_back({"sim.slab_rtt_us_inproc", "us", p.slab_rtt_us_inproc});
  m.push_back({"sim.slab_gbps_inproc", "GB/s", p.slab_gbps_inproc});
  m.push_back({"sim.slab_rtt_us_tcp", "us", p.slab_rtt_us_tcp});
  m.push_back({"sim.slab_gbps_tcp", "GB/s", p.slab_gbps_tcp});
  m.push_back({"sim.dt_allreduce_us", "us", p.dt_allreduce_us});
  m.push_back({"sim.tcp_frames_per_step", "count", tcp.tcp_frames_per_step});
  m.push_back({"sim.tcp_bytes_per_step", "B", tcp.tcp_bytes_per_step});

  const double write_ms = median(tcp.ckpt_write_ms);
  const double mb = tcp.ckpt_bytes * 1e-6;
  m.push_back({"io.ckpt_write_ms", "ms", write_ms});
  m.push_back({"io.ckpt_write_mbps", "MB/s",
               write_ms > 0.0 ? mb / (1e-3 * write_ms) : 0.0});
  m.push_back({"io.ckpt_read_ms", "ms", tcp.ckpt_read_ms});
  m.push_back({"io.ckpt_read_mbps", "MB/s",
               tcp.ckpt_read_ms > 0.0 ? mb / (1e-3 * tcp.ckpt_read_ms)
                                      : 0.0});
  m.push_back({"io.ckpt_bytes", "B", tcp.ckpt_bytes});
  m.push_back({"io.validate_ms", "ms", tcp.validate_ms});
  m.push_back({"io.restart_s", "s", tcp.restart_s});

  m.push_back({"app.construct_s", "s", r.construct_s});
  m.push_back({"app.init_s", "s", r.init_s});
  m.push_back({"app.health_ms", "ms", r.health_ms});
  m.push_back({"app.gather_ms", "ms", r.gather_ms});

  m.push_back({"trace.overhead_ns", "ns", r.grind_ns - ref_grind});
  m.push_back({"trace.overhead_frac", "ratio", r.grind_ns / ref_grind - 1.0});

  std::printf("perfbench %s seed=%llu trace=1\n", w.name.c_str(),
              static_cast<unsigned long long>(a.seed));
  print_table(m);
  const auto self = tr.self_times();
  std::printf("  span self times (ms, count):\n");
  for (const auto& [name, st] : self)
    std::printf("    %-28s %12.3f %6d\n", name.c_str(), 1e3 * st.total_s,
                st.count);
  for (const auto& f : failures) std::printf("  FAILED: %s\n", f.c_str());

  const std::string stem = a.out_dir + "/" + w.name + "-seed" +
                           std::to_string(a.seed) + "-trace1";
  tr.write_chrome(stem + ".trace.json");
  std::ostringstream rec;
  rec << "{\"workload\": " << str(w.name) << ", \"trace\": 1"
      << ", \"provenance\": " << provenance_json(a, w, r)
      << ", \"input\": " << ic.json() << ", \"metrics\": " << metrics_json(m)
      << ", \"self_ms\": {";
  bool first = true;
  for (const auto& [name, st] : self) {
    rec << (first ? "" : ", ") << str(name) << ": " << num(1e3 * st.total_s);
    first = false;
  }
  rec << "}, \"state_fnv\": " << str(hex(r.state_fnv))
      << ", \"dt_fnv\": " << str(hex(r.dt_fnv)) << ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i)
    rec << (i ? ", " : "") << str(failures[i]);
  rec << "]}\n";
  std::ofstream(stem + ".json") << rec.str();

  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              metrics_json(m).c_str());
  return failed == 0 ? 0 : 1;
}

/// The gate must pass a healthy run and fail the known-bad one: fp16x32
/// jet-single at n=64, whose second step overflows to NaN with dt = 0.
int self_test(JobOptions o) {
  const SeededIc ic = make_ic(1);
  Workload bad;
  bad.name = "selftest-fp16x32-n64";
  bad.case_name = "jet-single";
  bad.prec = Prec::kFp16x32;
  bad.n = 64;
  bad.threads = 4;
  bad.warmup = 0;
  bad.timed = 4;
  Workload good = *find_workload("jet-fp64-cached");
  good.warmup = 0;
  good.timed = 4;

  const JobResult rb = run_job(bad, ic, o, nullptr);
  const JobResult rg = run_job(good, ic, o, nullptr);
  std::printf("self-test: %s -> %d of %d steps failed\n", bad.name.c_str(),
              rb.failed, rb.attempted);
  for (const auto& f : rb.failures) std::printf("  %s\n", f.c_str());
  std::printf("self-test: %s control -> %d of %d steps failed\n",
              good.name.c_str(), rg.failed, rg.attempted);
  for (const auto& f : rg.failures) std::printf("  %s\n", f.c_str());
  const bool ok = rb.failed == rb.attempted && rb.attempted > 0 &&
                  rg.failed == 0;
  std::printf("self-test %s\n", ok ? "PASSED" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse(argc, argv);
  try {
    std::filesystem::create_directories(a.out_dir);
    JobOptions o;
    o.scratch = a.out_dir + "/scratch";
    if (a.self_test) return self_test(o);
    const Workload& w = *find_workload(a.workload);
    const SeededIc ic = make_ic(a.seed);
    return a.trace ? run_traced(a, w, ic, o) : run_untraced(a, w, ic, o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
